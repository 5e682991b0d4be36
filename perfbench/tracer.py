"""Outside-in span tracer for the siotsec package.

`install()` wraps every public function of the layer modules, both where it
is defined and under every name another siotsec module imports it by (for
example `siotsec.channel.snr_cdf` and `siotsec.secrecy.snr_cdf` get the same
wrapper).  Each call records a span `[name, start, end, parent, op_id, units]`
in memory; `layer_metrics()` folds the spans into per-layer counts and self
times.  Nothing here edits the package's source.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("channel", "secrecy", "covert", "images", "attack", "harness", "cli")

NAME, START, END, PARENT, OP, UNITS = range(6)


def _mc_samples(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n"]


def _dfp_trials(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["trials"]


def _attack_iters(args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return cfg.max_iters


def _file_size_arg(index, key):
    def size(args, kwargs, result):
        return os.path.getsize(args[index] if len(args) > index else kwargs[key])
    return size


def _rendered_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


# span name -> (args, kwargs, result) -> work units recorded on the span
UNIT_COUNTERS = {
    "secrecy.sop_mc": _mc_samples,
    "secrecy.pnz_mc": _mc_samples,
    "secrecy.asc_mc": _mc_samples,
    "covert.dfp_mc": _dfp_trials,
    "attack.run_attack": _attack_iters,
    "images.write_pnm": _file_size_arg(1, "path"),
    "images.read_pnm": _file_size_arg(0, "path"),
    "harness.render_table": _rendered_bytes,
}


class Tracer:
    """In-memory span store; `op_id` tags spans with the benchmark op running."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = UNIT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, 0]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                rec[UNITS] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layer modules' public functions under every siotsec name."""
        import siotsec.cli  # noqa: F401  (the package itself does not import its CLI)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"siotsec.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "siotsec" and not modname.startswith("siotsec."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


_NUMERIC = {"secrecy.sop_numeric", "secrecy.pnz", "secrecy.asc"}
_MC = {"secrecy.sop_mc", "secrecy.pnz_mc", "secrecy.asc_mc"}
_PNM = {"images.write_pnm", "images.read_pnm"}
_PARSE = {"harness.parse_spec"}
_RENDER = {"harness.render_table", "harness.render_csv", "harness.render_json",
           "harness.emit_table"}
_CLI_MAIN = {"cli.main", "cli.build_parser"}
# bytes of the two float64 SNR arrays one paired Monte Carlo call draws
_MC_BYTES_PER_SAMPLE = 16


def layer_metrics(spans, import_s: float) -> dict[str, float]:
    """Per-layer counts and self times for one traced cycle of a workload.

    Counts and times are totals over the cycle, except
    `secrecy.saving_sop_evals` (per snr_saving_db call), `attack.run_calls`
    (the most run_attack calls any one op made), the per-unit ratios, and
    `cli.import_s` (the workload process's import of siotsec and its CLI).
    """
    own = self_times(spans)
    count: dict[str, int] = {}
    units: dict[str, float] = {}
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    for s, t in zip(spans, own):
        n = s[NAME]
        count[n] = count.get(n, 0) + 1
        units[n] = units.get(n, 0) + s[UNITS]
        self_s[n] = self_s.get(n, 0.0) + t
        incl[n] = incl.get(n, 0.0) + s[END] - s[START]

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    def layer_self(layer, exclude=()):
        return sum(v for n, v in self_s.items()
                   if n.split(".", 1)[0] == layer and n not in exclude)

    # sop_numeric calls made from inside snr_saving_db, per saving call
    saving_evals = 0
    for s in spans:
        if s[NAME] == "secrecy.sop_numeric":
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != "secrecy.snr_saving_db":
                p = spans[p][PARENT]
            saving_evals += p >= 0
    saving_calls = count.get("secrecy.snr_saving_db", 0)
    runs_per_op: dict[int, int] = {}
    for s in spans:
        if s[NAME] == "attack.run_attack":
            runs_per_op[s[OP]] = runs_per_op.get(s[OP], 0) + 1

    mc_samples = total(units, _MC)
    mc_self = total(self_s, _MC)
    iters = units.get("attack.run_attack", 0)
    return {
        "channel.cdf_calls": count.get("channel.snr_cdf", 0),
        "channel.pdf_calls": count.get("channel.snr_pdf", 0),
        "channel.self_s": layer_self("channel"),
        "secrecy.numeric_calls": total(count, _NUMERIC),
        "secrecy.numeric_self_s": total(self_s, _NUMERIC),
        "secrecy.saving_sop_evals": saving_evals / saving_calls if saving_calls else 0,
        "secrecy.mc_self_s": mc_self,
        "secrecy.mc_ns_per_sample": 1e9 * mc_self / mc_samples if mc_samples else 0.0,
        "secrecy.mc_bytes_computed": _MC_BYTES_PER_SAMPLE * mc_samples,
        "covert.self_s": layer_self("covert"),
        "covert.dfp_mc_trials": units.get("covert.dfp_mc", 0),
        "images.blur_calls": count.get("images.gaussian_blur", 0),
        "images.blur_self_s": self_s.get("images.gaussian_blur", 0.0),
        "images.pnm_bytes": total(units, _PNM),
        "images.pnm_self_s": total(self_s, _PNM),
        "attack.run_calls": max(runs_per_op.values(), default=0),
        "attack.iters": iters,
        "attack.us_per_iter": 1e6 * incl.get("attack.run_attack", 0.0) / iters if iters else 0.0,
        "attack.encode_calls": count.get("attack.encode", 0),
        "attack.defense_self_s": self_s.get("attack.defense_eval", 0.0),
        "harness.parse_self_s": total(self_s, _PARSE),
        "harness.run_self_s": layer_self("harness", _PARSE | _RENDER),
        "harness.render_self_s": total(self_s, _RENDER),
        "harness.render_bytes": units.get("harness.render_table", 0),
        "cli.import_s": import_s,
        "cli.main_self_s": total(self_s, _CLI_MAIN),
    }
