"""Run the smframe CLI with a span around every public smframe function.

    python3 tracer.py SPANS.json <smframe cli arguments...>

The program is not changed: after ``import smframe`` each public function
and public method of every smframe module is replaced by a timing wrapper
at every place it is bound (``from .field import spectral_derivative``
binds it in gnls, direct, gauge, ... as well), and so are the transform
entry points of ``numpy.fft`` and ``scipy.fft``.  Wrapping a transform at
the package attribute counts an n-D transform once, not once per axis.
Spans stay in memory and are written once, when the run ends.
"""

import sys
import time

T_START = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn",
                 "fft2", "ifft2", "rfft2", "irfft2")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.fft_points = 0
        self.fft_bytes = 0

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name: str, count_fft: bool = False):
        nid = self.name_id(name)
        # hyperbolic_sm_step retries by calling itself with _retried=True
        retry = (self.name_id(name + ".retry")
                 if "_retried" in inspect.signature(fn).parameters else None)
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (retry if retry is not None and kwargs.get("_retried")
                              else nid, t0, t1, parent)
            if count_fft:
                arr = args[0] if args else kwargs.get("a", kwargs.get("x"))
                self.fft_points += out.size
                self.fft_bytes += getattr(arr, "nbytes", 0) + out.nbytes
            return out

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function and method of the package's modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.partition(".")[2] or mod.__name__
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for mattr, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not mattr.startswith("_"):
                            setattr(obj, mattr,
                                    self.wrap(meth, f"{short}.{obj.__qualname__}.{mattr}"))
        import numpy.fft
        import scipy.fft
        for pkg in (numpy.fft, scipy.fft):
            for fname in FFT_FUNCTIONS:
                orig = getattr(pkg, fname, None)
                if orig is not None:
                    w = self.wrap(orig, f"{pkg.__name__}.{fname}", count_fft=True)
                    setattr(pkg, fname, w)
                    wrapped[id(orig)] = w
        for mod in modules:
            namespace = vars(mod)
            for table in [namespace] + [v for v in namespace.values() if isinstance(v, dict)]:
                for key, value in list(table.items()):
                    if id(value) in wrapped:
                        table[key] = wrapped[id(value)]

    def dump(self, path: str, t_end: float) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "t_start": T_START,
                       "t_end": t_end, "fft_points": self.fft_points,
                       "fft_bytes": self.fft_bytes}, fh, separators=(",", ":"))


def main() -> int:
    out_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import smframe
    import smframe.cli
    import smframe.runner  # noqa: F401  (imported lazily by the CLI; timed here)
    tracer.spans.append((tracer.name_id("setup.import"), t0, time.perf_counter(), -1))
    tracer.install(smframe)
    rc = smframe.cli.main(cli_args)
    tracer.dump(out_path, time.perf_counter())
    return rc


if __name__ == "__main__":
    sys.exit(main())
