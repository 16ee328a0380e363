"""Child entry point for every benchmark job.

    python3 perfbench/child.py AS_LIMIT_MB TRACE_OUT CLI_ARG...

Caps the process's address space at AS_LIMIT_MB (so a runaway allocation
fails this job instead of the machine), then runs the popdiff CLI:

* ``TRACE_OUT`` = ``-``: exactly ``python -m popdiff.cli CLI_ARG...``;
* otherwise every public function of each popdiff module is wrapped at every
  name it is bound to, ``popdiff.cli.main`` runs, and the spans and counters
  are written to TRACE_OUT as JSON when it returns or raises.

Modules import functions by name (``from .fourier import convolve``), so a
wrapper installed only on the defining module would miss most calls; the
tracer rebinds every alias in every ``popdiff.*`` module and the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import runpy
import sys
import time

LAYERS = ("fourier", "aps", "interval", "bohr", "behrend", "product", "modelfn", "domains", "cli")

# methods are not enumerated; these write artifacts and are wrapped by name
METHODS = {"domains": ("APProfile.to_csv",)}

# transform entry points: fourier.points counts only the outermost of these
TRANSFORMS = ("dft", "dft_values", "idft", "raw_transform")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans kept in memory as [layer, name, start, end, parent] plus counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = {}
        self.absent: list = []
        self.lru = None
        self.lru_size = 0

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def nested_in(self, names) -> bool:
        # hooks run after their own span has left the stack
        return any(self.spans[i][1] in names for i in self.stack)

    def wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self.stack
        hook = HOOKS.get(f"{layer}.{name}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                self.count(hook, f"{layer}.{name}", args, kwargs, result)
            return result

        return traced

    def count(self, hook, key, args, kwargs, result) -> None:
        # a counter that no longer fits the program's API is reported, not fatal
        try:
            hook(self, args, kwargs, result)
        except Exception as exc:  # noqa: BLE001
            note = f"{key}: counter failed ({type(exc).__name__}: {exc})"
            if note not in self.absent:
                self.absent.append(note)

    def install(self) -> None:
        wrapped: dict = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"popdiff.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrapped[id(obj)] = self.wrap(layer, name, obj)
                    if hasattr(obj, "cache_info"):
                        self.lru = obj
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or not callable(getattr(cls, meth, None)):
                    self.absent.append(f"{layer}.{dotted}")
                    continue
                setattr(cls, meth, self.wrap(layer, dotted, getattr(cls, meth)))
        for key in HOOKS:
            layer, name = key.split(".", 1)
            mod = sys.modules.get(f"popdiff.{layer}")
            if mod is not None and "." not in name and not hasattr(mod, name):
                self.absent.append(key)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "popdiff" and not mod_name.startswith("popdiff."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    setattr(mod, attr, wrapped[id(val)])

    def dump(self, path: str) -> None:
        if self.lru is not None:
            info = self.lru.cache_info()
            self.counters["behrend.cache_hits"] = info.hits
            self.counters["behrend.cache_misses"] = info.misses
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, "absent": self.absent}, fh)


# ---------------------------------------------------------------------------
# counters, taken at the same boundaries as the spans


def _transform(tr, args, kwargs, result):
    if tr.nested_in(TRANSFORMS):
        return
    n = len(result)
    tr.add("fourier.points", n)
    tr.counters["fourier.max_n"] = max(tr.counters.get("fourier.max_n", 0), n)


def _dft(tr, args, kwargs, result):
    _transform(tr, args, kwargs, result.coeffs)


def _table(kind):
    def hook(tr, args, kwargs, result):
        tr.add(f"aps.{kind}_tables", 1)
        tr.add("aps.diffs", len(result))

    return hook


def _ap_profile(tr, args, kwargs, result):
    if result.normalization != "group":  # group profiles count in the table calls
        tr.add("aps.diffs", len(result.densities))


def _scan(tr, args, kwargs, result):
    tr.add("interval.scans", 1)
    tr.add("interval.scan_points", len(args[0]))
    tr.add("interval.scans_passed", int(bool(result[2])))


def _bohr_elements(tr, args, kwargs, result):
    b = result[1] if isinstance(result, tuple) else result
    tr.add("bohr.elements", b.size)


def _upper(tr, args, kwargs, result):
    n = args[0].n
    tr.add("bohr.levels", len(result.levels))
    tr.add("bohr.collapsed_levels", sum(1 for lv in result.levels if lv["B_size"] == n))
    if result.phi_support is not None:
        tr.add("bohr.candidates", len(result.phi_support))


def _brute(tr, args, kwargs, result):
    # a miss is a call that grew the cache
    size = tr.lru.cache_info().currsize
    if size != tr.lru_size:
        tr.add("behrend.brute_misses", 1)
        tr.lru_size = size


def _pairs(tr, args, kwargs, result):
    tr.add("behrend.pairs", len(args[0]) ** 2)


def _level(tr, args, kwargs, result):
    tr.add("product.attempts", 1)
    tr.add("product.table_entries", len(result.density_table))


def _verdict(tr, args, kwargs, result):
    tr.add("product.verdicts", 1)
    tr.add("product.verdicts_passed", int(bool(result.passed)))


def _read(tr, args, kwargs, result):
    tr.add("domains.bytes_read", _size(args[0] if args else kwargs.get("path")))


def _written(index):
    def hook(tr, args, kwargs, result):
        tr.add("domains.bytes_written", _size(args[index] if len(args) > index else kwargs.get("path")))

    return hook


HOOKS = {
    "fourier.dft": _dft,
    "fourier.dft_values": _transform,
    "fourier.idft": _transform,
    "fourier.raw_transform": _transform,
    "aps.per_diff_density": lambda tr, a, k, r: tr.add("aps.diffs", 1),
    "aps.perdiff_table_dense": _table("dense"),
    "aps.perdiff_table_sparse": _table("sparse"),
    "aps.ap_profile": _ap_profile,
    "interval.scan_interval_fn": _scan,
    "interval.step3_overlay": lambda tr, a, k, r: tr.add("interval.overlay_attempts", 1),
    "bohr.bohr_set": _bohr_elements,
    "bohr.dilate": _bohr_elements,
    "bohr.double": _bohr_elements,
    "bohr.find_regular_scale": _bohr_elements,
    "bohr.upper_search": _upper,
    "behrend.brute_max_apfree": _brute,
    "behrend.count_cyclic_3aps": _pairs,
    "product.build_level1": _level,
    "product.random_modify_level": _level,
    "product.verify_level": _verdict,
    "domains.load_fn": _read,
    "domains.save_fn": _written(1),
    "domains.APProfile.to_csv": _written(1),
    "cli.main": None,  # listed so that its absence is reported
}


def main() -> None:
    limit = int(sys.argv[1]) << 20
    trace_out = sys.argv[2]
    cli_args = sys.argv[3:]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    if trace_out == "-":
        sys.argv = ["popdiff", *cli_args]
        runpy.run_module("popdiff.cli", run_name="__main__", alter_sys=True)
        return
    import popdiff.cli  # noqa: F401  (loads every layer before wrapping)

    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules["popdiff.cli"].main(cli_args)
    finally:
        tracer.dump(trace_out)
    sys.exit(code)


if __name__ == "__main__":
    main()
