"""Per-layer tracing by wrapping the library's functions from outside.

``Tracer.install()`` replaces each traced function of ``delooper`` with a
timing wrapper: every attribute of every loaded ``delooper.*`` module (and
of any extra module passed in) that *is* the original function is rebound,
because modules import functions by name (``abelian.kernel_mod_lattice is
intlin.kernel_mod_lattice``); methods are replaced on their class.
``uninstall()`` restores every original binding. Nothing is patched unless
``install()`` runs, so an untraced run executes the library untouched.

Wrappers aggregate count, total time and self time per (span, parent span)
in memory. Self time is a span's duration minus the time of the wrapped
spans it called (and minus the bookkeeping those spans' hooks did).
"""

from __future__ import annotations

import sys
import time
import weakref

# (module, attribute path, span name, hook name or None)
SPANS = [
    ("delooper.intlin", "smith_normal_form", "intlin.snf", "_on_snf"),
    ("delooper.intlin", "SmithSolver.__init__", "intlin.solver_init", "_on_solver_init"),
    ("delooper.intlin", "SmithSolver.solve_columns", "intlin.solve", "_on_solve"),
    ("delooper.intlin", "SmithSolver.nullspace", "intlin.nullspace", "_on_nullspace"),
    ("delooper.intlin", "kernel_mod_lattice", "intlin.kernel", None),
    ("delooper.intlin", "column_basis", "intlin.column_basis", None),
    ("delooper.intlin", "Mat.__matmul__", "intlin.matmul", None),
    ("delooper.abelian", "PresentedGroup.__init__", "abelian.group_init", "_on_group_init"),
    ("delooper.abelian", "PresentedGroup.canon", "abelian.canon", None),
    ("delooper.abelian", "PresentedGroup.canon_vector", "abelian.canon_vector", None),
    ("delooper.abelian", "PresentedGroup.elements", "abelian.elements", None),
    ("delooper.abelian", "subgroup", "abelian.subgroup", None),
    ("delooper.abelian", "homology", "abelian.homology", None),
    ("delooper.delta_core", "matching_object", "delta_core.matching_object", None),
    ("delooper.delta_core", "verify_identities", "delta_core.verify_identities", None),
    ("delooper.delta_core", "is_reedy_fibrant", "delta_core.reedy", None),
    ("delooper.moore", "moore_complex", "moore.moore_complex", None),
    ("delooper.moore", "homotopy_groups", "moore.homotopy_groups", None),
    ("delooper.moore", "e2_page", "moore.e2_page", None),
    ("delooper.moore", "certify_collapse", "moore.certify_collapse", None),
    ("delooper.moore", "double_moore_total_complex", "moore.total_complex", None),
    ("delooper.moore", "diagonal", "moore.diagonal", None),
    ("delooper.star", "star", "star.star", None),
    ("delooper.star", "check_condition_star", "star.condition_star", None),
    ("delooper.star", "is_strictly_multiplicative", "star.multiplicative", "_on_multiplicative"),
    ("delooper.star", "AbelianTarget.canon", "star.target_canon", None),
    ("delooper.star", "AbelianTarget.elements", "star.target_elements", None),
    ("delooper.synthesis", "synthesize", "synthesis.synthesize", "_on_synthesize"),
    ("delooper.permutohedron", "build_permutohedron", "permutohedron.build", None),
    ("delooper.permutohedron", "label", "permutohedron.label", None),
    ("delooper.permutohedron", "compatible_schema", "permutohedron.schema", None),
    ("delooper.words", "FaceWord.factorizations", "words.factorizations", None),
    ("delooper.pi_algebra", "SphereTable.load", "pi_algebra.table_load", None),
    ("delooper.pi_algebra", "validate", "pi_algebra.validate", None),
    ("delooper.pi_algebra", "deloop", "pi_algebra.deloop", None),
    ("delooper.schemas", "load", "schemas.load", None),
    ("delooper.schemas", "*_from_json", "schemas.from_json", None),
    ("delooper.cli", "main", "cli.main", None),
]


def _max_bits(mats):
    return max((abs(x).bit_length() for M in mats for row in M.a for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans = {}  # (span, parent span) -> [count, total s, self s]
        self.counters = dict.fromkeys(
            ("snf_cells", "snf_max_rows", "snf_max_cols", "snf_max_bits", "single_rhs", "solvers",
             "one_shot_solvers", "mult_pairs", "stages", "tier_exact", "tier_tie", "tier_lift"),
            0,
        )
        self._rels_seen = set()
        self._solvers = {}  # id(solver) -> (weakref, [solve_columns calls, nullspace calls])
        self._stack = [["", 0.0]]  # [span name, time spent in wrapped children]
        self._patches = []  # (owner, attribute, original value)

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn, span, hook):
        stats, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec = stats.get((span, parent[0]))
                if rec is None:
                    rec = stats[(span, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - frame[1]
                parent[1] += t1 - t0
            if hook is not None:
                hook(args, result)
                parent[1] += clock() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__qualname__ = getattr(fn, "__qualname__", span)
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, extra_modules=()):
        """Wrap every traced function; uninstall() before installing again."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, path, span, hook_name in SPANS:
            module = sys.modules.get(modname)
            if module is None:
                raise RuntimeError(f"{modname} is not loaded")
            hook = getattr(self, hook_name) if hook_name else None
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    self._set(cls, meth, staticmethod(self._wrap(raw.__func__, span, hook)))
                else:
                    self._set(cls, meth, self._wrap(raw, span, hook))
                continue
            if path.startswith("*"):
                names = [n for n in vars(module) if n.endswith(path[1:]) and callable(getattr(module, n))]
            else:
                names = [path]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(original, span, hook)
                self._rebind(original, wrapper, extra_modules)

    def _rebind(self, original, wrapper, extra_modules):
        modules = [m for n, m in list(sys.modules.items()) if n == "delooper" or n.startswith("delooper.")]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --------------------------------------------------------------- hooks
    def _on_snf(self, args, result):
        A = args[0]
        c = self.counters
        c["snf_cells"] += A.r * A.c
        c["snf_max_rows"] = max(c["snf_max_rows"], A.r)
        c["snf_max_cols"] = max(c["snf_max_cols"], A.c)
        c["snf_max_bits"] = max(c["snf_max_bits"], _max_bits(result))

    def _on_solver_init(self, args, result):
        key = id(args[0])
        uses = [0, 0]

        def retire(_ref, key=key, uses=uses):
            if self._solvers.pop(key, None) is not None:  # not yet tallied by finish()
                self._tally_solver(uses)

        self._solvers[key] = (weakref.ref(args[0], retire), uses)

    def _tally_solver(self, uses):
        self.counters["solvers"] += 1
        if uses[0] <= 1 and uses[1] == 0:
            self.counters["one_shot_solvers"] += 1

    def _on_solve(self, args, result):
        if args[1].c == 1:
            self.counters["single_rhs"] += 1
        entry = self._solvers.get(id(args[0]))
        if entry is not None:
            entry[1][0] += 1

    def _on_nullspace(self, args, result):
        entry = self._solvers.get(id(args[0]))
        if entry is not None:
            entry[1][1] += 1

    def _on_group_init(self, args, result):
        G = args[0]
        self._rels_seen.add((G.ngens, G.rels.c, tuple(map(tuple, G.rels.a))))

    def _on_multiplicative(self, args, result):
        K = args[1]
        if result[0] and hasattr(K, "sab"):
            self.counters["mult_pairs"] += sum(K.sab.levels[n].order() ** 2 for n in range(K.cap + 1))

    def _on_synthesize(self, args, result):
        log = result.stage_log
        self.counters["stages"] += len(log)
        for entry in log:
            self.counters["tier_" + entry["tier"]] += 1

    # ------------------------------------------------------------- results
    def finish(self):
        """Retire the solvers still alive; call once, after uninstall()."""
        for _ref, uses in self._solvers.values():
            self._tally_solver(uses)
        self._solvers.clear()

    def calls(self, span):
        return sum(rec[0] for (name, _), rec in self.spans.items() if name == span)

    def self_s(self, span):
        return sum(rec[2] for (name, _), rec in self.spans.items() if name == span)

    def metrics(self, passes):
        """Per-layer metrics, counts and times per pass of the instance pool."""
        c, per = self.counters, 1.0 / passes

        def count(span):
            return self.calls(span) * per

        def secs(span):
            return self.self_s(span) * per

        def frac(num, den):
            return num / den if den else 0.0

        group_inits = self.calls("abelian.group_init")
        m = {
            "intlin.snf_calls": (count("intlin.snf"), "count"),
            "intlin.snf_s": (secs("intlin.snf"), "s"),
            "intlin.snf_cells": (c["snf_cells"] * per, "count"),
            "intlin.snf_max_rows": (c["snf_max_rows"], "count"),
            "intlin.snf_max_cols": (c["snf_max_cols"], "count"),
            "intlin.snf_max_bits": (c["snf_max_bits"], "bits"),
            "intlin.solver_inits": (count("intlin.solver_init"), "count"),
            "intlin.solve_calls": (count("intlin.solve"), "count"),
            "intlin.solve_s": (secs("intlin.solve"), "s"),
            "intlin.single_rhs_frac": (frac(c["single_rhs"], self.calls("intlin.solve")), "ratio"),
            "intlin.one_shot_solver_frac": (frac(c["one_shot_solvers"], c["solvers"]), "ratio"),
            "intlin.kernel_calls": (count("intlin.kernel"), "count"),
            "intlin.column_basis_calls": (count("intlin.column_basis"), "count"),
            "intlin.column_basis_s": (secs("intlin.column_basis"), "s"),
            "intlin.matmul_calls": (count("intlin.matmul"), "count"),
            "intlin.matmul_s": (secs("intlin.matmul"), "s"),
            "abelian.group_inits": (group_inits * per, "count"),
            "abelian.group_init_s": (secs("abelian.group_init"), "s"),
            "abelian.distinct_rels_frac": (frac(len(self._rels_seen), group_inits), "ratio"),
            "abelian.canon_calls": (count("abelian.canon"), "count"),
            "abelian.canon_s": (secs("abelian.canon"), "s"),
            "abelian.canon_vector_calls": (count("abelian.canon_vector"), "count"),
            "abelian.canon_vector_s": (secs("abelian.canon_vector"), "s"),
            "abelian.elements_calls": (count("abelian.elements"), "count"),
            "abelian.subgroup_calls": (count("abelian.subgroup"), "count"),
            "abelian.homology_calls": (count("abelian.homology"), "count"),
            "abelian.homology_s": (secs("abelian.homology"), "s"),
            "delta_core.matching_object_calls": (count("delta_core.matching_object"), "count"),
            "delta_core.matching_object_s": (secs("delta_core.matching_object"), "s"),
            "delta_core.verify_identities_s": (secs("delta_core.verify_identities"), "s"),
            "delta_core.reedy_s": (secs("delta_core.reedy"), "s"),
            "moore.moore_complex_calls": (count("moore.moore_complex"), "count"),
            "moore.moore_complex_s": (secs("moore.moore_complex"), "s"),
            "moore.homotopy_groups_s": (secs("moore.homotopy_groups"), "s"),
            "moore.e2_page_s": (secs("moore.e2_page"), "s"),
            "moore.certify_collapse_s": (secs("moore.certify_collapse"), "s"),
            "moore.total_complex_s": (secs("moore.total_complex"), "s"),
            "moore.diagonal_s": (secs("moore.diagonal"), "s"),
            "star.star_calls": (count("star.star"), "count"),
            "star.star_s": (secs("star.star"), "s"),
            "star.condition_star_s": (secs("star.condition_star"), "s"),
            "star.multiplicative_s": (secs("star.multiplicative"), "s"),
            "star.mult_pairs": (c["mult_pairs"] * per, "count"),
            "star.target_canon_calls": (count("star.target_canon"), "count"),
            "star.target_elements_calls": (count("star.target_elements"), "count"),
            "synthesis.synthesize_s": (secs("synthesis.synthesize"), "s"),
            "synthesis.stages": (c["stages"] * per, "count"),
            "synthesis.tier_exact": (c["tier_exact"] * per, "count"),
            "synthesis.tier_tie": (c["tier_tie"] * per, "count"),
            "synthesis.tier_lift": (c["tier_lift"] * per, "count"),
            "permutohedron.build_s": (secs("permutohedron.build"), "s"),
            "permutohedron.label_s": (secs("permutohedron.label"), "s"),
            "permutohedron.schema_s": (secs("permutohedron.schema"), "s"),
            "words.factorizations_calls": (count("words.factorizations"), "count"),
            "words.factorizations_s": (secs("words.factorizations"), "s"),
            "pi_algebra.table_load_s": (secs("pi_algebra.table_load"), "s"),
            "pi_algebra.validate_s": (secs("pi_algebra.validate"), "s"),
            "pi_algebra.deloop_s": (secs("pi_algebra.deloop"), "s"),
            "schemas.load_s": (secs("schemas.load"), "s"),
            "schemas.from_json_s": (secs("schemas.from_json"), "s"),
            "cli.main_calls": (count("cli.main"), "count"),
            "cli.main_s": (secs("cli.main"), "s"),
        }
        return m

    def layer_shares(self):
        """Share of all wrapped self time per layer (the name before the dot)."""
        by_layer = {}
        for (name, _), rec in self.spans.items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + rec[2]
        total = sum(by_layer.values()) or 1.0
        return {layer: t / total for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])}
