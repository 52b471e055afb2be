"""Span tracing for the benchmark, installed from outside the program.

`Tracer.install()` wraps each function named in TRACED and replaces it
in every `posn` module that binds it, so `from .core import hash_block`
in `netsim` is traced as well as `core.hash_block` itself. Each call
records a span (name, start, end, parent); a span's self time is its
duration minus the duration of its child spans. The three `Node` slot
hooks share the span `consensus.node`, and `Sim.run` is the root span
`netsim.loop`, so the loop's self time is the event loop outside every
traced call.

`Tracer.audit()` is the binding audit: it lists every place in the
`posn` modules that still holds an unwrapped original while the tracer
is installed, so calls that would escape the trace are caught. Run this
file to install, audit and uninstall once:

    PYTHONPATH=src python3 perfbench/spans.py
"""

from __future__ import annotations

import importlib
import sys
import time
from types import FunctionType, ModuleType

# module -> functions wrapped, span name "<module>.<function>"
TRACED = {
    "core": ("hash_block", "append_block", "select_mempool"),
    "crypto": ("keygen", "sign", "verify", "vrf_eval", "vrf_verify"),
    "kernels": ("first_fire",),
    "neuro": ("make_slot_seed", "spike_inputs", "first_spike_step"),
    "consensus": ("compute_slot_context", "compute_fire_steps",
                  "elect_leader", "propose", "check_signatures",
                  "validate_proposal", "collect_votes", "make_vote",
                  "distribute_rewards", "verify_evidence", "apply_penalty"),
    "baselines": ("por_elect", "pob_elect"),
    "netsim": ("sample_delay",),
    "metrics": ("summarize", "export"),
}

# (module, class) -> {method: span name}
METHODS = {
    ("consensus", "Node"): {"begin_slot": "consensus.node",
                            "on_message": "consensus.node",
                            "end_slot": "consensus.node"},
    ("netsim", "Sim"): {"run": "netsim.loop"},
}

# spans whose distinct calls are counted, so calls per distinct input
# shows repeated work: a block's hash, a (key, message, tag) check
DISTINCT = {
    "core.hash_block": lambda args, result: result,
    "crypto.verify": lambda args, result: (args[0], args[1], args[2].tag),
}


def posn_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "posn" or name.startswith("posn.")) and m is not None]


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1), in call order
        self.spans: list = []
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._stack: list[int] = []
        self._wrapper_of: dict = {}   # original function -> wrapper
        self._patched: list = []      # (owner, attribute, original)

    def reset(self) -> None:
        self.spans.clear()
        for seen in self.distinct.values():
            seen.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        key = DISTINCT.get(name)
        seen = self.distinct.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if key is not None:
                seen.add(key(args, result))
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function at each of its bindings, and the
        METHODS on their classes."""
        importlib.import_module("posn")
        for mod_name, funcs in TRACED.items():
            mod = importlib.import_module(f"posn.{mod_name}")
            for func in funcs:
                fn = getattr(mod, func)
                self._wrapper_of[fn] = self._wrap(f"{mod_name}.{func}", fn)
        for mod in posn_modules():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) \
                        and value in self._wrapper_of:
                    setattr(mod, attr, self._wrapper_of[value])
                    self._patched.append((mod, attr, value))
        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"posn.{mod_name}"),
                          cls_name)
            for meth, span in methods.items():
                original = vars(cls)[meth]
                wrapper = self._wrap(span, original)
                self._wrapper_of[original] = wrapper
                setattr(cls, meth, wrapper)
                self._patched.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._wrapper_of.clear()

    def bindings(self) -> list[str]:
        """Every binding the installed tracer replaced."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, _ in self._patched]

    def audit(self) -> list[str]:
        """Places in the posn modules that still hold an unwrapped
        original: module globals, class attributes, function defaults and
        module-level containers. Empty means every call is traced."""
        originals = self._wrapper_of
        found = []

        def check(where: str, value) -> None:
            if isinstance(value, FunctionType) and value in originals:
                found.append(where)

        for mod in posn_modules():
            for attr, value in vars(mod).items():
                where = f"{mod.__name__}.{attr}"
                check(where, value)
                if isinstance(value, (dict, list, tuple, set, frozenset)):
                    items = value.values() if isinstance(value, dict) else value
                    for item in items:
                        check(f"{where}[...]", item)
                if isinstance(value, type) \
                        and value.__module__ == mod.__name__:
                    for cattr, cvalue in vars(value).items():
                        check(f"{where}.{cattr}", cvalue)
                        check(f"{where}.{cattr}",
                              getattr(cvalue, "__func__", None))
                if isinstance(value, FunctionType):
                    for default in (value.__defaults__ or ()) + tuple(
                            (value.__kwdefaults__ or {}).values()):
                        check(f"{where} default", default)
        return found

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def distinct_counts(self) -> dict[str, int]:
        return {name: len(seen) for name, seen in self.distinct.items()}


def main() -> int:
    tracer = Tracer()
    tracer.install()
    missed = tracer.audit()
    wrapped = tracer.bindings()
    tracer.uninstall()
    left = [b for b in (f"{m.__name__}.{a}" for m in posn_modules()
                        for a, v in vars(m).items()
                        if getattr(v, "__wrapped__", None) is not None)]
    for binding in wrapped:
        print("wrapped", binding)
    for where in missed:
        print("UNWRAPPED", where)
    for where in left:
        print("NOT RESTORED", where)
    print(f"{len(wrapped)} bindings wrapped, {len(missed)} unwrapped, "
          f"{len(left)} not restored")
    return 1 if missed or left else 0


if __name__ == "__main__":
    sys.exit(main())
