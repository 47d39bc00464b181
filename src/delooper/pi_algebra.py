"""Truncated graded groups with sphere operations, and their delooping.

A fragment records groups in a 1-connected degree window together with
the recorded values of sphere-table operations on its generators.
Delooping shifts the degrees up by one and asks, for each generator and
each sphere row, for a group homomorphism extending the values forced on
suspension classes; an inconsistent congruence is the primary
obstruction to the shift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources

from .abelian import PresentedGroup, quotient
from .intlin import Mat, SmithSolver, solve_modulo, unvec, vec_block
from .jsontypes import InputError, entry, key_int, load_object, typed


class NotAbelianError(InputError):
    """Delooping requires all recorded Whitehead values to vanish."""


@dataclass
class SphereTable:
    span: tuple  # (n_min, n_max, stem_max)
    groups: dict  # (n, m) -> PresentedGroup
    declared: dict  # (n, m) -> declared factor list, aligned with gens
    gens: dict  # (n, m) -> list of generator names
    location: dict  # gen name -> (n, m, index)
    compositions: dict  # (left gen, right gen) -> value vector
    suspensions: dict  # gen -> value vector in the (n+1, m+1) group
    whitehead: dict  # (gen, gen) -> value vector

    @staticmethod
    def load(path=None):
        if path is None:
            data = json.loads(resources.files("delooper").joinpath("data/spheres.json").read_text())
        else:
            data = load_object(path)
        if type(data.get("format")) is not int or data["format"] != 1:
            raise InputError(f"unsupported sphere table format {data.get('format')!r}")
        span_data = entry(data, "span", "an object", "sphere table span")
        span = tuple(entry(span_data, key, "an integer", f"sphere table span.{key}")
                     for key in ("n_min", "n_max", "stem_max"))
        groups, declared, gens, location = {}, {}, {}, {}
        for n_str, rows in entry(data, "groups", "an object", "sphere table groups").items():
            n = key_int(n_str, f"sphere table groups.{n_str}")
            for m_str, row in typed(rows, "an object", f"sphere table groups.{n_str}").items():
                where = f"sphere table groups.{n_str}.{m_str}"
                m = key_int(m_str, where)
                row = typed(row, "an object", where)
                factors = entry(row, "factors", "a list of integers", f"{where}.factors")
                names = entry(row, "gens", "a list of generator names", f"{where}.gens")
                if len(names) != len(factors):
                    raise InputError(f"{where}: {len(names)} generator names for {len(factors)} factors")
                groups[(n, m)] = PresentedGroup.from_factors(factors)
                declared[(n, m)] = list(factors)
                gens[(n, m)] = list(names)
                for idx, name in enumerate(names):
                    if name in location:
                        raise InputError(f"duplicate generator name {name}")
                    location[name] = (n, m, idx)
        # each optional section is a list of objects: the generator names under
        # its keys (a pair, or the one generator of a suspension) and a value
        values = {}
        for section, keys in (("compositions", ("left", "right")), ("suspensions", ("gen",)),
                              ("whitehead", ("left", "right"))):
            values[section] = {}
            for k, item in enumerate(typed(data.get(section, []), "a list", f"sphere table {section}")):
                where = f"sphere table {section}[{k}]"
                typed(item, "an object", where)
                names = tuple(entry(item, key, "a generator name", f"{where}.{key}") for key in keys)
                value = entry(item, "value", "a list of integers", f"{where}.value")
                values[section][names if len(names) > 1 else names[0]] = value
        table = SphereTable(
            span=span,
            groups=groups,
            declared=declared,
            gens=gens,
            location=location,
            compositions=values["compositions"],
            suspensions=values["suspensions"],
            whitehead=values["whitehead"],
        )
        table._check()
        return table

    def _check(self):
        for (left, right), value in self.compositions.items():
            n, m, _ = self.require(left)
            m2, r, _ = self.require(right)
            if m2 != m:
                raise InputError(f"composition ({left}, {right}) has mismatched middle sphere")
            if (n, r) not in self.groups:
                raise InputError(f"composition ({left}, {right}) lands in pi_{r} S^{n}, outside the table")
            if len(value) != len(self.gens[(n, r)]):
                raise InputError(f"composition ({left}, {right}) value has wrong length")
        for gen, value in self.suspensions.items():
            n, m, _ = self.require(gen)
            if (n + 1, m + 1) not in self.groups:
                raise InputError(f"suspension of {gen} leaves the table span")
            if len(value) != len(self.gens[(n + 1, m + 1)]):
                raise InputError(f"suspension of {gen} has wrong value length")
        # E is multiplicative on recorded compositions, where all data exists
        for (left, right), value in self.compositions.items():
            if left not in self.suspensions or right not in self.suspensions:
                continue
            n, m, _ = self.location[left]
            _, r, _ = self.location[right]
            lhs = self.suspend_element((n, r), value)
            if lhs is None:
                continue
            rhs = self.compose_elements((n + 1, m + 1), self.suspensions[left], (m + 1, r + 1), self.suspensions[right])
            if rhs is None:
                continue
            if not self._is_zero((n + 1, r + 1), [x - y for x, y in zip(lhs, rhs)]):
                raise InputError(f"suspension is not multiplicative on ({left}, {right})")
        # Whitehead values die under suspension, degreewise
        for (left, right), value in self.whitehead.items():
            n, p, _ = self.require(left)
            n2, q, _ = self.require(right)
            if n != n2:
                raise InputError(f"Whitehead pair ({left}, {right}) on different spheres")
            row = (n, p + q - 1)
            if row not in self.groups:
                raise InputError(f"Whitehead product ({left}, {right}) lands in pi_{row[1]} S^{n}, outside the table")
            if len(value) != len(self.gens[row]):
                raise InputError(f"Whitehead product ({left}, {right}) value has wrong length")
            img = self.suspend_element(row, value)
            if img is not None and not self._is_zero((n + 1, p + q), img):
                raise InputError(f"Whitehead product ({left}, {right}) survives suspension")

    def _is_zero(self, key, v):
        """Whether v is zero in the group at key, read off its diagonal
        presentation (the declared factors) without a Smith form."""
        return all(x % d == 0 if d else x == 0 for x, d in zip(v, self.declared[key]))

    def require(self, gen):
        if gen not in self.location:
            raise InputError(f"unknown sphere table generator {gen}")
        return self.location[gen]

    def group(self, n, m):
        if (n, m) not in self.groups:
            raise InputError(f"pi_{m} S^{n} outside the bundled span")
        return self.groups[(n, m)]

    def rows_for(self, n, m_max):
        return sorted(m for (nn, m) in self.groups if nn == n and m <= m_max)

    def suspend_element(self, key, value):
        """E of an element of pi_m S^n given as a generator-coefficient vector."""
        n, m = key
        if (n + 1, m + 1) not in self.groups:
            return None
        return _combine(len(self.gens[(n + 1, m + 1)]), zip(value, map(self.suspensions.get, self.gens[key])))

    def compose_elements(self, lkey, lvalue, rkey, rvalue):
        """Compose two elements where the table records all needed products."""
        if lkey[1] != rkey[0]:
            raise InputError("composition keys do not chain")
        terms = (
            (lc * rc, self.compositions.get((lname, rname)))
            for lc, lname in zip(lvalue, self.gens[lkey])
            for rc, rname in zip(rvalue, self.gens[rkey])
        )
        return _combine(len(self.gens[(lkey[0], rkey[1])]), terms)


def _combine(length, terms):
    """The sum of c * v over the terms (c, v) with c != 0, as a vector of the
    given length, or None when one such v is None (a value not recorded)."""
    out = [0] * length
    for c, v in terms:
        if c:
            if v is None:
                return None
            for i, x in enumerate(v):
                out[i] += c * x
    return out


def default_table():
    return SphereTable.load()


@dataclass
class PiAlgebraFragment:
    """Groups in a degree window with recorded operation values on generators."""

    d_lo: int
    d_hi: int
    groups: dict  # degree -> PresentedGroup
    gen_names: dict  # degree -> list of names
    action: dict  # (table gen, (degree, fragment gen)) -> value vector (in degree m)
    whitehead: dict  # ((deg, gen), (deg, gen)) -> value vector
    free_summands: list = field(default_factory=list)  # (name, sphere dim) when built free

    def group(self, degree):
        return self.groups.get(degree, PresentedGroup.free(0))

    def gen_index(self, degree, name):
        return self.gen_names[degree].index(name)

    def generator_vector(self, degree, name):
        return self.group(degree).basis_vector(self.gen_index(degree, name))

    def degrees(self):
        return range(self.d_lo, self.d_hi + 1)

    def is_free(self):
        return bool(self.free_summands)


@dataclass
class FragmentReport:
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems


def validate(G, table):
    """Consistency of the recorded span: references, torsion orders,
    composite coherence, Whitehead symmetry."""
    report = FragmentReport()
    note = report.problems.append
    checked = {}  # the actions of the right shape, which alone the coherence check reads
    for key, value in G.action.items():
        theta, (deg, gen) = key
        try:
            n, m, idx = table.require(theta)
        except InputError as exc:
            note(str(exc))
            continue
        if deg != n:
            note(f"action of {theta} recorded on a degree-{deg} generator, expected degree {n}")
            continue
        if gen not in G.gen_names.get(deg, []):
            note(f"action on unknown fragment generator {gen} in degree {deg}")
            continue
        target = G.group(m)
        if len(value) != target.ngens:
            note(f"action value of ({theta}, {gen}) has wrong length")
            continue
        checked[key] = value
        # torsion-order consistency: ord(theta) * value must vanish
        gen_order = table.declared[(n, m)][idx]
        if gen_order:
            scaled = [gen_order * v for v in value]
            if not target.is_zero_elt(scaled):
                note(
                    f"additivity violation: {gen_order} * ({theta}^# {gen}) != 0 "
                    f"though {gen_order} * {theta} = 0 in the table"
                )
    G = replace(G, action=checked)
    # composite coherence: (theta . psi)^# g = psi^# (theta^# g) where recorded
    for (ltheta, rtheta), cval in table.compositions.items():
        n, m, _ = table.location[ltheta]
        _, r, _ = table.location[rtheta]
        if n not in G.degrees():
            continue
        for gen in G.gen_names.get(n, []):
            left = G.action.get((ltheta, (n, gen)))
            if left is None:
                continue
            # psi^# extended additively over the fragment value, against (sum c_i theta_i)^# gen
            tgt = G.group(r)
            stepped = _apply_action_to_vector(G, table, rtheta, left)
            terms = ((c, G.action.get((theta, (n, gen)))) for c, theta in zip(cval, table.gens[(n, r)]))
            direct = _combine(tgt.ngens, terms)
            if stepped is None or direct is None:
                continue
            if tgt.canon(stepped) != tgt.canon(direct):
                note(f"composition coherence fails for ({ltheta} . {rtheta}) on {gen}")
    for ((d1, g1), (d2, g2)), value in G.whitehead.items():
        if len(value) != G.group(d1 + d2 - 1).ngens:
            note(f"Whitehead value [{g1},{g2}] has wrong length")
    return report


def _apply_action_to_vector(G, table, theta, vector):
    """theta^# of a fragment element in theta's source degree, by additivity
    over recorded generators."""
    n, m, _ = table.location[theta]
    terms = ((c, G.action.get((theta, (n, gen)))) for c, gen in zip(vector, G.gen_names.get(n, [])))
    return _combine(G.group(m).ngens, terms)


def is_abelian(G):
    """Whether every recorded Whitehead value vanishes."""
    return all(G.group(d1 + d2 - 1).is_zero_elt(value) for ((d1, _), (d2, _)), value in G.whitehead.items())


def free_fragment(summands, table, window):
    """pi_* of a wedge of spheres, restricted to a degree window.

    summands: list of (name, sphere dimension). Rows are copied from the
    table per summand; actions on row elements come from recorded
    compositions; cross-summand Whitehead products are symbolic
    generators, excluded from any further expansion.
    """
    d_lo, d_hi = window
    n_min, n_max, stem_max = table.span
    gen_names = {d: [] for d in range(d_lo, d_hi + 1)}
    factors = {d: [] for d in range(d_lo, d_hi + 1)}
    rows = []  # (summand name, dim, m, theta) per row generator, in generator order
    for (name, dim) in summands:
        if not (n_min <= dim <= n_max):
            raise InputError(f"sphere dimension {dim} outside table span")
        for m in table.rows_for(dim, min(d_hi, dim + stem_max)):
            if m < d_lo:
                continue
            for theta, factor in zip(table.gens[(dim, m)], table.declared[(dim, m)]):
                rows.append((name, dim, m, theta))
                gen_names[m].append(f"{name}.{theta}")
                factors[m].append(factor)
    # symbolic cross-summand Whitehead generators: (key, degree, label) per pair
    cross = []
    for a, (name_a, dim_a) in enumerate(summands):
        for name_b, dim_b in summands[a + 1:]:
            d = dim_a + dim_b - 1
            if d_lo <= d <= d_hi:
                label = f"w[{name_a},{name_b}]"
                gen_names[d].append(label)
                factors[d].append(0)
                cross.append((((dim_a, f"{name_a}.i{dim_a}"), (dim_b, f"{name_b}.i{dim_b}")), d, label))
    frag = PiAlgebraFragment(
        d_lo=d_lo,
        d_hi=d_hi,
        groups={d: PresentedGroup.from_factors(factors[d]) for d in factors},
        gen_names=gen_names,
        action={},
        whitehead={},
        free_summands=list(summands),
    )

    def copied(name, dim, d, value):
        """A value on the table row (dim, d), in summand name's copy of that row."""
        row = zip(value, table.gens[(dim, d)])
        return _combine(frag.group(d).ngens, ((c, frag.generator_vector(d, f"{name}.{theta}")) for c, theta in row if c))

    # actions: table rows act on the canonical generator of each summand...
    for name, dim, m, theta in rows:
        iota = f"{name}.i{dim}"
        if m != dim and iota in gen_names.get(dim, ()):
            frag.action[(theta, (dim, iota))] = frag.generator_vector(m, f"{name}.{theta}")
    # ...and on row elements through recorded compositions
    for name, dim, m, theta in rows:
        for (left, right), value in table.compositions.items():
            _, r, _ = table.location[right]
            if left == theta and m != dim and d_lo <= r <= d_hi:
                frag.action[(right, (m, f"{name}.{theta}"))] = copied(name, dim, r, value)
    # Whitehead values: same-summand pairs from the table, cross pairs symbolic
    for (name, dim) in summands:
        iota, d = f"{name}.i{dim}", 2 * dim - 1
        value = table.whitehead.get((f"i{dim}", f"i{dim}"))
        if value is not None and d_lo <= d <= d_hi:
            frag.whitehead[((dim, iota), (dim, iota))] = copied(name, dim, d, value)
    frag.whitehead.update((key, frag.generator_vector(d, label)) for key, d, label in cross)
    return frag


def comonad_T(G, table, window=None):
    """Free fragment on one sphere per nonzero element (finite degrees) or per
    recorded generator (degrees with free summands), with the evaluation counit."""
    if window is None:
        window = (G.d_lo, G.d_hi)
    d_lo, d_hi = window
    summands, targets = [], []
    for k in range(d_lo, d_hi + 1):
        grp = G.group(k)
        if grp.ngens == 0:
            continue
        if grp.order() is None:
            enumerated = [(name, G.generator_vector(k, name)) for name in G.gen_names[k]]
        else:
            # elements() lists each coset once, zero first
            enumerated = [(f"elt{idx}", v) for idx, v in enumerate(grp.elements()) if idx]
        for name, vec in enumerated:
            summands.append((f"d{k}_{name}", k))
            targets.append(vec)
    T = free_fragment(summands, table, window)
    # each sphere goes to its element, and each row element theta of it to
    # theta^# of that element when G records the actions it needs
    counit = {}
    for (tag, k), vec in zip(summands, targets):
        counit[(k, f"{tag}.i{k}")] = (k, vec)
        for m in table.rows_for(k, min(d_hi, k + table.span[2])):
            for theta in table.gens[(k, m)] if m != k else ():
                stepped = _apply_action_to_vector(G, table, theta, vec)
                if stepped is not None:
                    counit[(m, f"{tag}.{theta}")] = (m, stepped)
    return T, counit


def counit_is_surjective(G, counit, window=None):
    """Whether the counit images of comonad_T span each nontrivial group of
    G in the window (G's degrees by default)."""
    if window is None:
        window = (G.d_lo, G.d_hi)
    for k in range(window[0], window[1] + 1):
        grp = G.group(k)
        if grp.is_trivial():
            continue
        cols = [vec for (deg, _), (tdeg, vec) in counit.items() if tdeg == k]
        if not cols:
            return False
        M = Mat(grp.ngens, len(cols), [[cols[j][i] for j in range(len(cols))] for i in range(grp.ngens)])
        coker, _ = quotient(grp, M)
        if not coker.is_trivial():
            return False
    return True


def indecomposables(F):
    """Q of a free fragment: one Z per sphere summand, in its dimension."""
    if not F.is_free():
        raise ValueError("indecomposables requires a fragment built free")
    factors = {}
    for (_, dim) in F.free_summands:
        factors.setdefault(dim, []).append(0)
    return {d: tuple(v) for d, v in factors.items()}


@dataclass
class FragmentMap:
    """Morphism data between free fragments: generator images per degree."""

    src: PiAlgebraFragment
    dst: PiAlgebraFragment
    images: dict  # (degree, src summand name) -> value vector in dst degree group


def q_matrix(fmap, dim):
    """The induced map on indecomposables in one dimension."""
    src_summands = [name for (name, d) in fmap.src.free_summands if d == dim]
    dst_summands = [name for (name, d) in fmap.dst.free_summands if d == dim]
    row_of = {f"{name}.i{dim}": i for i, name in enumerate(dst_summands)}
    out = Mat(len(dst_summands), len(src_summands))
    for j, name in enumerate(src_summands):
        for gen_name, coeff in zip(fmap.dst.gen_names.get(dim, []), fmap.images.get((dim, name), ())):
            if coeff and gen_name in row_of:
                out.a[row_of[gen_name]][j] = coeff
    return out


def retract_complement(i_map, r_map):
    """Generators completing the image of a split inclusion of free fragments.

    Checks r . i = id on indecomposables, then returns, per dimension, the
    summand names of the target whose classes complete the image to the
    whole indecomposable lattice.
    """
    A, B = i_map.src, i_map.dst
    if r_map.src is not B or r_map.dst is not A:
        raise ValueError("retraction endpoints do not match the inclusion")
    dims = sorted({d for (_, d) in A.free_summands} | {d for (_, d) in B.free_summands})
    complement = {}
    for dim in dims:
        Qi = q_matrix(i_map, dim)
        Qr = q_matrix(r_map, dim)
        comp = Qr @ Qi
        if comp != Mat.eye(comp.r):
            raise ValueError(f"r . i is not the identity on indecomposables in dimension {dim}")
        dst_summands = [name for (name, d) in B.free_summands if d == dim]
        chosen = []
        span = Qi
        for idx, name in enumerate(dst_summands):
            e = [int(k == idx) for k in range(len(dst_summands))]
            if not SmithSolver(span).contains_column(e):
                chosen.append(name)
                span = span.hstack(Mat.column(e))
        # the span is all of Z^r exactly when every Smith modulus is 1
        if not all(d == 1 for d in SmithSolver(span).moduli):
            raise ValueError(f"complement does not span indecomposables in dimension {dim}")
        complement[dim] = chosen
    return complement


@dataclass
class Obstruction:
    degree: int
    generator: str
    relation: str
    forced_description: str
    table_row: tuple  # (n, m)
    coefficients: list = None  # the forced combination of row generators
    forced_value: list = None  # its prescribed image in the target group
    target_factors: tuple = None  # invariant factors of the target group

    def describe(self):
        return (
            f"delooping obstruction in degree {self.degree} on generator {self.generator}: "
            f"{self.relation}; {self.forced_description}"
        )

    def recheck(self, table):
        """Re-solve just this congruence from its stored coordinates."""
        if self.coefficients is None:
            return True
        target = PresentedGroup.from_factors(list(self.target_factors))
        return _solve_row_hom(table.group(*self.table_row), target, [(self.coefficients, self.forced_value)]) is None


@dataclass
class DeloopResult:
    fragment: PiAlgebraFragment


def deloop(G, table):
    """Degree-shift with actions forced on suspension classes.

    For every generator g' of the shifted fragment and every sphere row in
    range, solves for a homomorphism out of the row group matching every
    recorded suspension forcing; returns the shifted fragment with one
    consistent choice (zero where unconstrained) or the Obstruction
    witnessing an unsolvable congruence. The choice is the Smith solve's
    particular solution, not reduced modulo the target's relations (ROADMAP
    item 1), so a value may be far from its smallest representative.
    """
    if not is_abelian(G):
        raise NotAbelianError("recorded Whitehead values must vanish before delooping")
    n_min, n_max, _ = table.span
    d_lo, d_hi = G.d_lo + 1, G.d_hi + 1
    groups = {d: G.group(d - 1) for d in range(d_lo, d_hi + 1)}
    gen_names = {d: [f"{name}'" for name in G.gen_names.get(d - 1, [])] for d in range(d_lo, d_hi + 1)}
    out = PiAlgebraFragment(
        d_lo=d_lo,
        d_hi=d_hi,
        groups=groups,
        gen_names=gen_names,
        action={},
        whitehead={},
    )
    for k in range(d_lo, d_hi + 1):
        if k < n_min or k > n_max:
            continue
        for gen in G.gen_names.get(k - 1, []):
            gen_p = f"{gen}'"
            for m in table.rows_for(k, d_hi):
                if m == k:
                    continue
                row = table.group(k, m)
                row_gens = table.gens[(k, m)]
                target = out.group(m)
                # unknown homomorphism h: row -> target on row generators
                constraints = []  # (coeff vector over row gens, forced target vector)
                for theta_bar in table.gens.get((k - 1, m - 1), []):
                    if theta_bar not in table.suspensions:
                        continue
                    forced = G.action.get((theta_bar, (k - 1, gen)))
                    if forced is None:
                        continue
                    constraints.append((table.suspensions[theta_bar], list(forced)))
                h = _solve_row_hom(row, target, constraints)
                if h is None:
                    return _describe_failing_congruence(table, k, m, gen, constraints, target)
                for i, theta in enumerate(row_gens):
                    out.action[(theta, (k, gen_p))] = h.col(i)
    return DeloopResult(fragment=out)


def _solve_row_hom(row, target, constraints):
    """A homomorphism h: row -> target as a matrix, with h(coeffs) = forced
    in target for every (coeffs, forced) in constraints, or None.

    The unknown is X = hᵀ, read row-major: h(gen_i)_t is unknown i*T + t
    (T = target.ngens). Each constraint, then each relation of row (forced
    to 0), is a row of C, and C·X ≡ F holds row by row modulo target's
    relations R: the slack term S·Rᵀ.
    """
    T = target.ngens
    rows = [coeffs for coeffs, _ in constraints] + [row.rels.col(rc) for rc in range(row.rels.c)]
    if not rows or not T:
        return Mat(T, row.ngens)
    F = [x for _, forced in constraints for x in forced] + [0] * (T * row.rels.c)
    slack = vec_block(Mat.eye(len(rows)), target.rels.transpose())
    X = solve_modulo(vec_block(Mat.from_rows(rows), Mat.eye(T)), Mat.column(F), slack)
    if X is None:
        return None
    return unvec(X.col(0), row.ngens, T).transpose()


def _describe_failing_congruence(table, k, m, gen, constraints, target):
    # find a single unsatisfiable congruence for the witness if one exists
    row = table.group(k, m)
    for coeffs, forced in constraints:
        if _solve_row_hom(row, target, [(coeffs, forced)]) is None:
            nz = [(i, c) for i, c in enumerate(coeffs) if c]
            names = table.gens[(k, m)]
            combo = " + ".join(f"{c}*{names[i]}" for i, c in nz) if nz else "0"
            return Obstruction(
                degree=m,
                generator=f"{gen}'",
                relation=f"suspension forces h({combo}) = {forced} in {target.describe()}",
                forced_description=(
                    f"no homomorphism pi_{m} S^{k} -> {target.describe()} satisfies it: "
                    f"the forced value is not in the image of the relation-constrained span"
                ),
                table_row=(k, m),
                coefficients=list(coeffs),
                forced_value=list(forced),
                target_factors=tuple(_diagonal_factors(target) or target.invariant_factors()),
            )
    return Obstruction(
        degree=m,
        generator=f"{gen}'",
        relation="joint suspension constraints unsatisfiable",
        forced_description="the full congruence system over the row group has no solution",
        table_row=(k, m),
    )


def _diagonal_factors(G):
    """The factor of each generator of G when its relations are diagonal
    (one per generator, as fragment groups are kept), else None."""
    a = G.rels.a
    if G.rels.c == G.ngens and all(a[i][j] == 0 for i in range(G.ngens) for j in range(G.ngens) if i != j):
        return [a[i][i] for i in range(G.ngens)]
    return None


def reverify_obstruction(obstruction, G, table):
    """The witness re-verifies on demand: the stored congruence alone is
    unsatisfiable, and a fresh delooping run still hits the same row."""
    if not obstruction.recheck(table):
        return False
    result = deloop(G, table)
    return isinstance(result, Obstruction) and result.table_row == obstruction.table_row


def eta_chain_fragment():
    """The undeloopable fragment: Z in degree 2 carrying an eta chain whose
    top value is killed by no homomorphism out of the order-12 row."""
    groups = {
        2: PresentedGroup.from_factors([0]),
        3: PresentedGroup.from_factors([2]),
        4: PresentedGroup.from_factors([2]),
        5: PresentedGroup.from_factors([2]),
    }
    gen_names = {2: ["x"], 3: ["hx"], 4: ["hhx"], 5: ["hhhx"]}
    frag = PiAlgebraFragment(d_lo=2, d_hi=5, groups=groups, gen_names=gen_names, action={}, whitehead={})
    frag.action[("e2", (2, "x"))] = [1]
    frag.action[("ee2", (2, "x"))] = [1]
    frag.action[("eee2", (2, "x"))] = [1]
    frag.action[("e3", (3, "hx"))] = [1]
    frag.action[("ee3", (3, "hx"))] = [1]
    frag.action[("e4", (4, "hhx"))] = [1]
    frag.whitehead[((2, "x"), (2, "x"))] = [0]
    frag.whitehead[((2, "x"), (3, "hx"))] = [0]
    return frag


def loop_space_s3_fragment():
    """Suspension-generated fragment of the loops on the 3-sphere, degrees 2..5."""
    groups = {
        2: PresentedGroup.from_factors([0]),
        3: PresentedGroup.from_factors([2]),
        4: PresentedGroup.from_factors([2]),
        5: PresentedGroup.from_factors([12]),
    }
    gen_names = {2: ["x"], 3: ["hx"], 4: ["hhx"], 5: ["ax"]}
    frag = PiAlgebraFragment(d_lo=2, d_hi=5, groups=groups, gen_names=gen_names, action={}, whitehead={})
    frag.action[("e2", (2, "x"))] = [1]
    frag.action[("ee2", (2, "x"))] = [1]
    frag.action[("eee2", (2, "x"))] = [6]
    frag.action[("e3", (3, "hx"))] = [1]
    frag.action[("ee3", (3, "hx"))] = [6]
    frag.action[("e4", (4, "hhx"))] = [6]
    frag.whitehead[((2, "x"), (2, "x"))] = [0]
    return frag


def fragments_equal(F1, F2, table):
    """Exact equality of groups, recorded actions, and Whitehead values,
    matching generators positionally per degree; values are compared as
    canonical cosets in their target groups."""
    degs = sorted(set(F1.groups) | set(F2.groups))
    for d in degs:
        if F1.group(d).invariant_factors() != F2.group(d).invariant_factors():
            return False
        if len(F1.gen_names.get(d, [])) != len(F2.gen_names.get(d, [])):
            return False

    def action_key_value(F):
        out = {}
        for (theta, (deg, gen)), v in F.action.items():
            _, m, _ = table.require(theta)
            out[(theta, deg, F.gen_names[deg].index(gen))] = F.group(m).canon(v)
        return out

    if action_key_value(F1) != action_key_value(F2):
        return False

    def wh_key_value(F):
        # zero records are bookkeeping conventions; nonzero content must agree
        out = {}
        for ((d1, g1), (d2, g2)), v in F.whitehead.items():
            if F.group(d1 + d2 - 1).is_zero_elt(v):
                continue
            key = ((d1, F.gen_names[d1].index(g1)), (d2, F.gen_names[d2].index(g2)))
            out[key] = F.group(d1 + d2 - 1).canon(v)
        return out

    return wh_key_value(F1) == wh_key_value(F2)
