"""Run one collab-avg command in this process exactly as ``python -m collab_avg`` does.

usage: python launch.py RECORD PASS_ID MODE -- <collab-avg arguments>

MODE is ``plain`` (tracing off), ``trace`` (spans at every layer boundary)
or ``setup`` (stop once the configuration is loaded). In every mode the
end of set-up is timestamped by wrapping ``load_run_config`` where ``cli``
imports it. ``trace`` also wraps each boundary listed in ``BOUNDARIES`` at
the name its caller looks up, keeps the spans in memory and writes them,
with the timestamps and counts, to RECORD as JSON when the command ends.
Times are ``time.monotonic()``, which the parent process shares.
"""

import time

T_START = time.monotonic()

import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402


class SetupDone(BaseException):
    """Ends a ``setup`` run; a BaseException so the CLI's handlers let it through."""


def _count_by(parameter, size):
    """A counter reading ``parameter`` from a call's bound arguments."""

    def count(signature, args, kwargs):
        return size(signature.bind(*args, **kwargs).arguments[parameter])

    return count


_TRIALS = _count_by("trials", int)
_UNIFORMS = _count_by("u", lambda u: int(u.size))


def _matrix_draws(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs).arguments
    return int(bound["n_streams"]) * int(bound["count"])


# (span name, module, attribute path, counter of work per call). Each entry
# is the name the caller looks up at call time, so the wrapper sees exactly
# the calls one layer makes into the next.
BOUNDARIES = (
    ("montecarlo.validate", "collab_avg.cli", "validate_scenario", None),
    ("montecarlo.curve", "collab_avg.montecarlo", "estimate_error_curve", None),
    ("montecarlo.trial_means", "collab_avg.montecarlo", "trial_means", _TRIALS),
    ("philox", "collab_avg.montecarlo", "uniform_matrix", _matrix_draws),
    ("transform.normal", "collab_avg.distributions", "Normal._from_uniforms", _UNIFORMS),
    ("transform.exponential", "collab_avg.distributions", "Exponential._from_uniforms", _UNIFORMS),
    ("transform.uniform", "collab_avg.distributions", "Uniform._from_uniforms", _UNIFORMS),
    ("transform.bernoulli", "collab_avg.distributions", "Bernoulli._from_uniforms", _UNIFORMS),
    ("transform.pointmass", "collab_avg.distributions", "PointMass._from_uniforms", _UNIFORMS),
    ("theory", "collab_avg.montecarlo", "error_profile", None),
    ("theory", "collab_avg.montecarlo", "ese_of_alpha", None),
    ("theory", "collab_avg.cli", "error_profile", None),
    ("theory", "collab_avg.cli", "ese_of_alpha", None),
    ("theory", "collab_avg.cli", "alpha_star_upper_bounds", None),
    ("theory", "collab_avg.cli", "max_ese", None),
    ("federation", "collab_avg.cli", "reduce_to_two_agent", None),
    ("table1", "collab_avg.cli", "reproduce_table", None),
)


class Recorder:
    """Spans ``[name, start, end, parent index, pass id]`` and per-name counts."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self.stack = []
        self.counts = {}
        self.calls = {}
        self.uncounted = set()

    def wrap(self, name, function, counter=None):
        signature = inspect.signature(function) if counter is not None else None
        spans, stack, counts, calls, pass_id = self.spans, self.stack, self.counts, self.calls, self.pass_id
        uncounted = self.uncounted

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.monotonic()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans[index] = [name, start, end, parent, pass_id]
                calls[name] = calls.get(name, 0) + 1
                if counter is not None:
                    try:
                        counts[name] = counts.get(name, 0) + counter(signature, args, kwargs)
                    except (TypeError, KeyError, AttributeError):
                        uncounted.add(name)  # the parameter it reads was renamed

        traced.__wrapped__ = function
        return traced


def _resolve(module_name, path):
    """``(owner, attribute, current value)`` or None when the boundary is gone."""
    owner = sys.modules.get(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attribute):
        return None
    return owner, attribute, getattr(owner, attribute)


def _install(recorder):
    """Wrap every boundary; return the ones that no longer exist."""
    absent = []
    for name, module_name, path, counter in BOUNDARIES:
        found = _resolve(module_name, path)
        if found is None:
            absent.append(f"{module_name}.{path}")
            continue
        owner, attribute, function = found
        setattr(owner, attribute, recorder.wrap(name, function, counter))
    # The dispatch table holds the command functions themselves.
    commands = getattr(sys.modules.get("collab_avg.cli"), "_COMMANDS", None)
    if isinstance(commands, dict):
        for command, (function, needs_scenario) in list(commands.items()):
            commands[command] = (recorder.wrap("cli", function), needs_scenario)
    else:
        absent.append("collab_avg.cli._COMMANDS")
    return absent


def main(argv):
    record_path, pass_id, mode = argv[0], int(argv[1]), argv[2]
    command_args = argv[argv.index("--") + 1 :]
    record = {"pass_id": pass_id, "mode": mode, "t_start": T_START, "absent": []}

    record["t_import_start"] = time.monotonic()
    import collab_avg

    for module_name in sorted({module for _, module, _, _ in BOUNDARIES}):
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass  # its boundaries are reported absent below
    record["t_import_end"] = time.monotonic()
    record["package"] = collab_avg.__file__
    recorder = Recorder(pass_id)
    if mode == "trace":
        record["absent"] = _install(recorder)

    # The end of set-up: the configuration is loaded, nothing drawn or written.
    found = _resolve("collab_avg.cli", "load_run_config")
    if found is None:
        record["absent"].append("collab_avg.cli.load_run_config")
    else:
        owner, attribute, load_run_config = found

        def timed_load_run_config(*args, **kwargs):
            record["t_parse_start"] = time.monotonic()
            config = load_run_config(*args, **kwargs)
            record["t_setup_end"] = time.monotonic()
            if mode == "setup":
                raise SetupDone
            return config

        setattr(owner, attribute, timed_load_run_config)

    sys.argv = ["collab_avg", *command_args]
    code = 0
    try:
        runpy.run_module("collab_avg", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except SetupDone:
        pass
    record["t_main_end"] = time.monotonic()
    record["exit_code"] = code
    record["spans"] = recorder.spans
    record["counts"] = recorder.counts
    record["calls"] = recorder.calls
    record["uncounted"] = sorted(recorder.uncounted)
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
