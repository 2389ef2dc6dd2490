"""Set-up time of radialqc in a fresh interpreter, beside a reference kernel.

    python3 perfbench/setup_probe.py SRC

Times ``import radialqc`` from SRC (numpy included) and the build of f, h and
the four limits.  Around it, the reference kernel runs three times before and
three times after: it unmarshals and executes a module body of function and
class definitions and constant tuples, the work an import does once it has
read a cached file.  Prints the set-up seconds and the median reference
seconds before and after.  Nothing but the standard library is imported
before the timed import.
"""

import marshal
import statistics
import sys
import time

_SOURCE = "\n".join(
    [f"def f{i}(a, b=1, *c, d=None):\n    return a + b + {i}\n" for i in range(120)]
    + [f"class C{i}:\n    x = {i}\n\n    def m(self):\n        return self.x\n\n"
       f"    def n(self, y):\n        return y * {i}.5\n" for i in range(40)]
    + [f"T{i} = ({i}, 'name{i}', {i}.25, frozenset(({i}, {i + 1})))" for i in range(100)]
)
_CODE = marshal.dumps(compile(_SOURCE, "<reference>", "exec"))


def reference():
    t0 = time.perf_counter()
    exec(marshal.loads(_CODE), {"__name__": "reference"})
    return time.perf_counter() - t0


def main(src):
    before = statistics.median(reference() for _ in range(3))
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import radialqc as rq

    f = rq.build_standard_map(2.0)
    h = rq.build_conjugated_map(f)
    for kind in rq.LIMIT_KINDS:
        rq.limit_function(f if kind[0] == "P" else h, kind)
    t1 = time.perf_counter()
    after = statistics.median(reference() for _ in range(3))
    print(t1 - t0, before, after)


if __name__ == "__main__":
    main(sys.argv[1])
