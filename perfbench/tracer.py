"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces every public function of each ``hrep`` module,
and a few ``FiniteGroup`` methods, with a wrapper that records a span:
its name, start, end and the span that was open when it began.  A
wrapper has to sit wherever the name is looked up at call time, so each
original is replaced in every module namespace and module-level dict
that holds it (``cli`` imports the check functions into its own
namespace and dispatches through ``_COMMANDS``; ``group_core`` keeps
constructors in ``_FAMILIES``).  ``QmodZ`` constructions are only
counted, through ``QmodZ.__post_init__``, since a span per value would
swamp the numbers.  ``uninstall`` puts every original back.

Spans live in flat arrays until ``write`` dumps them at the end of a run.
A span's self time is its duration minus what its child spans cover, so
the self times of all spans add up to the root spans exactly (integer
nanoseconds).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import weakref
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

MODULES = ("cli", "group_core", "abelian", "char_theory", "transfer", "heisenberg", "induced_det")
METHODS = ("__init__", "all_subgroups", "quotient")

# Inclusive-time metrics: the span names each one covers.  A span counts
# only when no ancestor belongs to the same metric, so nesting and
# recursion are not counted twice.
INCLUSIVE = {
    "induced_det.twist_s": ("induced_det.twist",),
    "induced_det.routes_s": (
        "induced_det.oracle_equivalence_report",
        "induced_det.isotropic_independence",
        "induced_det.epsilon_case_report",
        "induced_det.build_det_report",
    ),
    "induced_det.p3_s": ("induced_det.p3_classification",),
    "char_theory.extend_s": ("char_theory.extend_character", "char_theory.extend_character_all"),
    "heisenberg.enumerate_pairs_s": ("heisenberg.enumerate_pairs",),
    "heisenberg.isotropics_s": (
        "heisenberg.all_maximal_isotropics",
        "heisenberg.maximal_isotropic_through",
    ),
    "transfer.checks_s": (
        "transfer.check_odd_index_transfer",
        "transfer.check_correcting_cocycle",
        "transfer.check_correcting_ratio",
        "transfer.check_transfer_identities",
        "transfer.transversal_independence_check",
    ),
    "group_core.construct_s": ("group_core.FiniteGroup.__init__",),
    "group_core.all_subgroups_s": ("group_core.FiniteGroup.all_subgroups",),
    "group_core.quotient_s": ("group_core.FiniteGroup.quotient",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._triples: set = set()
        self._table_hash: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0)
            stack.append(idx)
            span_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count_len(self, *keys):
        def hook(args, result):
            for key in keys:
                self.counts[key] += len(result)

        return hook

    def _count_calls(self, key):
        def hook(args, result):
            self.counts[key] += 1

        return hook

    def _count_triple(self, args, result):
        pair, sub, chi_h = args[0], args[1], args[2]
        group = pair.group
        table_hash = self._table_hash.get(group)
        if table_hash is None:
            table_hash = hash(tuple(map(tuple, group.table)))
            self._table_hash[group] = table_hash
        self._triples.add((table_hash, pair.Z.members, pair.chi.exps, sub.members, chi_h.exps))

    def _hooks(self):
        return {
            "induced_det.induced_matrix": self._count_triple,
            "induced_det.twist": self._count_calls("induced_det.twists"),
            "char_theory.extend_character": self._count_calls("char_theory.extensions"),
            "char_theory.extend_character_all": self._count_len(
                "char_theory.extensions", "char_theory.extend_all_results"
            ),
            "heisenberg.enumerate_pairs": self._count_len("heisenberg.pairs"),
            "transfer.transfer_instances": self._count_len("transfer.instances"),
            "group_core.FiniteGroup.all_subgroups": self._count_len("group_core.subgroups_listed"),
        }

    # -- patching -----------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every module of ``package``."""
        modules = {m: getattr(package, m) for m in MODULES}
        hooks = self._hooks()
        replacements = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    replacements[obj] = self._wrap(name, obj, hooks.get(name))
        for namespace in [package, *modules.values()]:
            for attr, obj in list(vars(namespace).items()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replacements:
                            self._restore.append((obj.__setitem__, key, value))
                            obj[key] = replacements[value]
                elif inspect.isfunction(obj) and obj in replacements:
                    self._restore.append((functools.partial(setattr, namespace), attr, obj))
                    setattr(namespace, attr, replacements[obj])

        group_cls = package.group_core.FiniteGroup
        for method in METHODS:
            original = vars(group_cls)[method]
            name = f"group_core.FiniteGroup.{method}"
            self._restore.append((functools.partial(setattr, group_cls), method, original))
            setattr(group_cls, method, self._wrap(name, original, hooks.get(name)))

        qmodz = package.char_theory.QmodZ
        post_init = vars(qmodz)["__post_init__"]
        counts = self.counts

        def counted_post_init(obj):
            counts["char_theory.qmodz_built"] += 1
            post_init(obj)

        self._restore.append((functools.partial(setattr, qmodz), "__post_init__", post_init))
        qmodz.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def span_count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else int(np.count_nonzero(np.asarray(self.span_name) == nid))

    def metrics(self) -> dict[str, float]:
        """Per-layer self and inclusive times in seconds, and work counts."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end, dtype=np.int64) - np.asarray(self.span_start, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_ns = dur - child
        layer_of = np.array([MODULES.index(n.split(".")[0]) for n in self.names], dtype=np.int64)
        span_layer = layer_of[names]
        layer_self_ns = [int(self_ns[span_layer == i].sum()) for i in range(len(MODULES))]
        root_ns = int(dur[~nested].sum())
        if sum(layer_self_ns) != root_ns:
            raise RuntimeError("layer self times do not add up to the root spans")

        out: dict[str, float] = {}
        for layer, ns in zip(MODULES, layer_self_ns):
            out[f"{layer}.self_s"] = ns / 1e9
        out.update(self._inclusive(names, parents, dur))

        builds = self.span_count("induced_det.induced_matrix")
        pairs = self.counts["heisenberg.pairs"]
        out["induced_det.matrix_builds"] = builds
        out["induced_det.matrix_builds_per_triple"] = builds / len(self._triples) if self._triples else 0.0
        out["char_theory.extensions"] = self.counts["char_theory.extensions"]
        out["char_theory.qmodz_built"] = self.counts["char_theory.qmodz_built"]
        out["heisenberg.pairs"] = pairs
        out["heisenberg.kernel_reductions_per_pair"] = (
            self.span_count("heisenberg.quotient_by_kernel") / pairs if pairs else 0.0
        )
        out["transfer.instances"] = self.counts["transfer.instances"]
        out["abelian.decompose_calls"] = self.span_count("abelian.decompose")
        out["group_core.groups_built"] = self.span_count("group_core.FiniteGroup.__init__")
        out["group_core.subgroups_listed"] = self.counts["group_core.subgroups_listed"]
        out["trace.command_s"] = root_ns / 1e9
        out["trace.spans"] = len(dur)
        return out

    def _inclusive(self, names, parents, dur) -> dict[str, float]:
        """Outermost-span time for each INCLUSIVE metric.

        Parents are recorded before their children, so one forward pass
        can carry, for every span, the set of metrics open above it.
        """
        bit_of_name = np.zeros(len(self.names), dtype=np.int64)
        for bit, covered in enumerate(INCLUSIVE.values()):
            for name in covered:
                if name in self._name_ids:
                    bit_of_name[self._name_ids[name]] |= 1 << bit
        own = bit_of_name[names].tolist()
        parent_list = parents.tolist()
        above = [0] * len(own)
        for i, p in enumerate(parent_list):
            if p >= 0:
                above[i] = above[p] | own[p]
        own_arr = np.asarray(own, dtype=np.int64)
        above_arr = np.asarray(above, dtype=np.int64)
        out = {}
        for bit, metric in enumerate(INCLUSIVE):
            mask = 1 << bit
            outermost = ((own_arr & mask) != 0) & ((above_arr & mask) == 0)
            out[metric] = int(dur[outermost].sum()) / 1e9
        return out

    def write(self, path) -> None:
        """Gzipped TSV, one line per span: id, parent id, name, start and end in ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i}\t{parent}\t{self.names[nid]}\t{start}\t{end}\n")
