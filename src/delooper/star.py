"""The levelwise free group on a pointed simplicial set and the derived
composition built from its multiplication retraction.

Words are reduced tuples of (generator id, +-1). The retraction evaluates
a word in a simplicial group target as the product of its letters
(``product``: Smith coordinates summed once on an abelian target,
left-iterated multiplication on a finite group target); the
star of a group homomorphism F(A) -> F(B) against a map B -> K is the
generator restriction of the evaluated composite, and the associativity
condition linking two stars is checked exactly, levelwise, up to the cap.
Elements of an abelian target are Smith-coordinate tuples (see
AbelianTarget); JSON files give them in generator coordinates.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .permutohedron import ResourceError
from .simplicial import BASE, FiniteSimplicialSet, is_simplicial_map

# Levels of finite targets are enumerated element by element, and
# FiniteGroupLevel.check makes |G|^2 r products (r generators): 22 s for the
# 1296 elements of level 3 of the codiscrete S_3 target on a 2-vCPU VM, so
# about 5 minutes at this bound, where its multiplication table alone has
# 16.8 million entries.
PRACTICAL_LEVEL_ORDER = 2**12


def _check_order(order, what):
    if order > PRACTICAL_LEVEL_ORDER:
        raise ResourceError(f"{what} of order {order} beyond practical bound {PRACTICAL_LEVEL_ORDER}")


def word_reduce(letters):
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_inv(a):
    return tuple((g, -e) for g, e in reversed(a))


class FreeSimplicialGroup:
    """Milnor's construction: level n is free on the non-basepoint n-simplices."""

    def __init__(self, base):
        self.base = base
        self.cap = base.cap
        self._generators = [tuple([x for x in base.elements[n] if x != BASE]) for n in range(base.cap + 1)]

    def generators(self, n):
        """The generators of level n, a tuple built once."""
        return self._generators[n]

    def identity(self, n):
        return ()

    def face(self, n, i, word):
        """d_i of a word: each letter's face, the basepoint dropped, reduced."""
        return word_reduce([(y, e) for g, e in word if (y := self.base.face(n, i, g)) != BASE])

    def degeneracy(self, n, j, word):
        return word_reduce([(y, e) for g, e in word if (y := self.base.degeneracy(n, j, g)) != BASE])


def milnor_F(K):
    return FreeSimplicialGroup(K)


@dataclass
class GroupHomMap:
    """Homomorphism of free simplicial groups, by generator images."""

    src: FreeSimplicialGroup
    dst: FreeSimplicialGroup
    tables: list  # per level, dict generator -> word in dst generators

    def apply(self, n, word):
        """The image of a word: the letter images concatenated and freely
        reduced once. Free reduction is confluent, so this is the word that
        multiplying the images one at a time gives, in linear time."""
        table = self.tables[n]
        letters = []
        for g, e in word:
            img = table[g]
            letters.extend(img if e == 1 else word_inv(img))
        return word_reduce(letters)

    def is_valid(self):
        """Every generator has an image, and the reduced images commute with
        faces and degeneracies: on the generators, which suffices for a
        homomorphism of free groups."""
        if any(g not in self.tables[n] for n in range(self.src.cap + 1) for g in self.src.generators(n)):
            return False
        reduced = [{g: word_reduce(w) for g, w in table.items()} for table in self.tables]
        return is_simplicial_map(self.src.base, self.dst, reduced)

    def compose(self, other):
        """self after other."""
        tables = []
        for n in range(other.src.cap + 1):
            tables.append({g: self.apply(n, other.tables[n][g]) for g in other.src.generators(n)})
        return GroupHomMap(other.src, self.dst, tables)


def identity_hom(F):
    return GroupHomMap(F, F, [{g: ((g, 1),) for g in F.generators(n)} for n in range(F.cap + 1)])


def induced_hom(F_src, F_dst, simp_map):
    """F applied to a pointed simplicial map of the bases."""
    tables = []
    for n in range(F_src.cap + 1):
        table = {}
        for g in F_src.generators(n):
            y = simp_map(n, g)
            table[g] = ((y, 1),) if y != BASE else ()
        tables.append(table)
    return GroupHomMap(F_src, F_dst, tables)


class AbelianTarget:
    """A simplicial abelian group as a multiplicative target.

    An element of level n is the Smith-coordinate tuple of its coset, the
    key ``PresentedGroup.canon`` returns: coordinate i is reduced mod the
    Smith diagonal entry d_i, and left unreduced where d_i = 0. The group
    law is componentwise addition mod d_i; faces and degeneracies are the
    integer matrices U_{n-/+1} . d . U_n^{-1} in these coordinates.
    ``from_generators`` and ``to_generators`` convert from and to the
    generator coordinates that files use.
    """

    def __init__(self, sab):
        self.sab = sab
        self.cap = sab.cap
        snfs = [G._snf for G in sab.levels]
        self._moduli = [snf.moduli for snf in snfs]
        self._identities = [(0,) * len(moduli) for moduli in self._moduli]
        self._faces = {
            n: [snfs[n - 1].U @ d @ snfs[n].Uinv for d in sab.faces[n]] for n in range(1, self.cap + 1)
        }
        self._degeneracies = {
            n: [snfs[n + 1].U @ s @ snfs[n].Uinv for s in sab.degeneracies[n]] for n in range(self.cap)
        }
        # the same maps as (row, modulus of the row's coordinate) pairs, as
        # face and degeneracy read them
        self._face_rows = {n: [list(zip(M.a, self._moduli[n - 1])) for M in Ms] for n, Ms in self._faces.items()}
        self._degeneracy_rows = {
            n: [list(zip(M.a, self._moduli[n + 1])) for M in Ms] for n, Ms in self._degeneracies.items()
        }

    def identity(self, n):
        return self._identities[n]

    def canon(self, n, v):
        """The element with Smith coordinates v, reduced."""
        return tuple([x % d if d else x for x, d in zip(v, self._moduli[n])])

    def mul(self, n, a, b):
        return tuple([(x + y) % d if d else x + y for x, y, d in zip(a, b, self._moduli[n])])

    def inv(self, n, a):
        return tuple([-x % d if d else -x for x, d in zip(a, self._moduli[n])])

    def product(self, n, letters):
        """The product of the letters (element, +-1) in order: their Smith
        coordinates summed and reduced once, as the group law is
        componentwise addition. Elements are reduced already, so one
        letter needs no sum."""
        terms = [x if e == 1 else self.inv(n, x) for x, e in letters]
        if len(terms) < 2:
            return terms[0] if terms else self.identity(n)
        return tuple([x % d if d else x for x, d in zip(map(sum, zip(*terms)), self._moduli[n])])

    def face(self, n, i, a):
        """d_i a in one pass over the rows of the face map: each coordinate
        is reduced mod its modulus as soon as it is summed, and left
        unreduced where the modulus is 0. A face map is an integer matrix,
        so the zero tuple goes to the identity without a row sum."""
        mul, rows = operator.mul, self._face_rows[n][i]
        if not any(a):
            return self._identities[n - 1]
        return tuple([sum(map(mul, row, a)) % d if d else sum(map(mul, row, a)) for row, d in rows])

    def degeneracy(self, n, j, a):
        """s_j a, in one pass as in face."""
        mul, rows = operator.mul, self._degeneracy_rows[n][j]
        if not any(a):
            return self._identities[n + 1]
        return tuple([sum(map(mul, row, a)) % d if d else sum(map(mul, row, a)) for row, d in rows])

    def elements(self, n):
        """Every element of level n, in the order of PresentedGroup.elements."""
        moduli = self._moduli[n]
        if 0 in moduli:
            raise ValueError("cannot enumerate an infinite level")
        _check_order(math.prod(moduli), f"level {n}")
        return list(itertools.product(*(range(d) for d in moduli)))

    def generators(self, n):
        """The unit Smith-coordinate tuples of the coordinates with d_i != 1;
        they generate level n."""
        moduli = self._moduli[n]
        return [tuple([int(i == j) for j in range(len(moduli))]) for i, d in enumerate(moduli) if d != 1]

    def from_generators(self, n, v):
        """The element whose generator-coordinate vector is v."""
        return self.sab.levels[n].canon(v)

    def to_generators(self, n, a):
        """A generator-coordinate vector of the element a."""
        return self.sab.levels[n]._snf.Uinv.apply(a)


@dataclass
class FiniteGroupLevel:
    elements: list
    mult: dict  # (a, b) -> ab
    inverse: dict
    identity: object

    def generators(self):
        """A greedy generating set: each element, in order, that the
        products of the earlier generators do not reach."""
        mult = self.mult
        gens = []
        span = {self.identity}
        for x in self.elements:
            if x in span:
                continue
            gens.append(x)
            frontier = list(span)
            while frontier:
                new = [y for y in {mult[(a, g)] for a in frontier for g in gens} if y not in span]
                span.update(new)
                frontier = new
        return gens

    def check(self):
        """Identity and inverse laws, then associativity by Light's test:
        (ab)g = a(bg) for every a, b and generator g. The elements c with
        (ab)c = a(bc) for all a, b are closed under products, and the
        generators reach every element as a product."""
        _check_order(len(self.elements), "group level")
        mult = self.mult
        e = self.identity
        for a in self.elements:
            if mult[(a, e)] != a or mult[(e, a)] != a:
                return False
            if mult[(a, self.inverse[a])] != e:
                return False
        for g in self.generators():
            for a in self.elements:
                for b in self.elements:
                    if mult[(mult[(a, b)], g)] != mult[(a, mult[(b, g)])]:
                        return False
        return True


class FiniteGroupTarget:
    """A levelwise finite (possibly nonabelian) simplicial group."""

    def __init__(self, levels, faces, degeneracies, cap):
        self.levels = levels  # FiniteGroupLevel per dimension
        self.faces = faces  # faces[n][i]: dict element -> element
        self.degeneracies = degeneracies
        self.cap = cap

    def identity(self, n):
        return self.levels[n].identity

    def mul(self, n, a, b):
        return self.levels[n].mult[(a, b)]

    def inv(self, n, a):
        return self.levels[n].inverse[a]

    def product(self, n, letters):
        """The product of the letters (element, +-1), multiplied from the left."""
        return retraction_mbar(self, n, letters)

    def face(self, n, i, a):
        return self.faces[n][i][a]

    def degeneracy(self, n, j, a):
        return self.degeneracies[n][j][a]

    def elements(self, n):
        return list(self.levels[n].elements)

    def generators(self, n):
        return self.levels[n].generators()

    def verify(self):
        """None if every level is a group and every face and degeneracy a
        homomorphism; else a message naming the first that is not. Each
        map is tested on the pairs (a, g) over generators g, as in
        is_strictly_multiplicative."""
        for n, lvl in enumerate(self.levels):
            if not lvl.check():
                return f"level {n} is not a group"
        generators = [lvl.generators() for lvl in self.levels]
        for n in range(1, self.cap + 1):
            for i in range(n + 1):
                image = {a: self.faces[n][i][a] for a in self.levels[n].elements}
                if _homomorphism_witness(image, generators[n], self, n, self, n - 1):
                    return f"d_{i} at level {n} is not a homomorphism"
        for n in range(0, self.cap):
            for j in range(n + 1):
                image = {a: self.degeneracies[n][j][a] for a in self.levels[n].elements}
                if _homomorphism_witness(image, generators[n], self, n, self, n + 1):
                    return f"s_{j} at level {n} is not a homomorphism"
        return None


@dataclass
class TargetMap:
    """A pointed simplicial map from a simplicial set into a group target."""

    src: FiniteSimplicialSet
    target: object
    tables: list  # per level, dict element id -> target element

    def __call__(self, n, x):
        if x == BASE:
            return self.target.identity(n)
        return self.tables[n][x]

    def is_valid(self):
        """The map is pointed and commutes with every face and degeneracy."""
        return is_simplicial_map(self.src, self.target, self.tables)


def retraction_mbar(K, n, word_in_elements):
    """Left-iterated multiplication of a word of (element, exponent) pairs."""
    acc = K.identity(n)
    for x, e in word_in_elements:
        y = x if e == 1 else K.inv(n, x)
        acc = K.mul(n, acc, y)
    return acc


def star(f, g, K):
    """The derived-composition map on generators: A -> K from f: FA -> FB
    and g: B -> K. The value at a generator a is the product in K of g on
    the letters of f's table word for a, as it stands: free reduction only
    cancels pairs x x^-1, whose product is e in any group."""
    return _checked(_star_map(f, g, K))


def _star_map(f, g, K):
    """The map star(f, g, K) returns, not yet checked to be simplicial."""
    A = f.src.base
    tables = []
    for n in range(A.cap + 1):
        words = f.tables[n]
        tables.append({a: K.product(n, [(g(n, x), e) for x, e in words[a]]) for a in f.src.generators(n)})
    return TargetMap(src=A, target=K, tables=tables)


def _checked(out):
    if not out.is_valid():
        raise RuntimeError("star evaluation produced a non-simplicial map")
    return out


def check_condition_star(f, g, h, K):
    """f . (g . h) versus (f # g) . h, evaluated exactly on all generators.

    f: FA -> FB and g: FB -> FC homomorphisms, h: C -> K a pointed map.
    Returns (True, None) or (False, (level, generator, lhs, rhs)).
    Raises RuntimeError as star does when a star is not simplicial. The
    right side has lhs's source and target, so it is checked only when its
    tables differ from lhs's, which star has checked.
    """
    return _condition_star(f, g, star(g, h, K), h, K)


def _condition_star(f, g, gh, h, K):
    """check_condition_star(f, g, h, K), given gh = star(g, h, K): B -> K."""
    lhs = star(f, gh, K)  # A -> K
    rhs = _star_map(g.compose(f), h, K)  # the star of FA -> FC against h
    if rhs.tables == lhs.tables:
        return True, None
    _checked(rhs)
    A = f.src.base
    for n in range(A.cap + 1):
        for a in f.src.generators(n):
            if lhs(n, a) != rhs(n, a):
                return False, (n, a, lhs(n, a), rhs(n, a))
    return True, None


def _homomorphism_witness(image, generators, K, n, L, m):
    """A pair (a, b) of K_n with image[ab] != image[a] image[b], or None.

    image maps every element of the group K_n into the group L_m, and
    generators generate K_n. A map of groups is a homomorphism once
    h(e) = e and h(ag) = h(a)h(g) for every element a and every generator
    g: by induction on word length, h(ab) = h(a)h(b) then holds for every
    pair. So the check makes |K_n| r products (r = len(generators)), not
    |K_n|^2. The pair returned has b a generator, or a = b = e when
    h(e) != e.
    """
    e = K.identity(n)
    if image[e] != L.identity(m):
        return e, e
    generator_images = [(g, image[g]) for g in generators]
    for a, ha in image.items():
        for g, hg in generator_images:
            if image[K.mul(n, a, g)] != L.mul(m, ha, hg):
                return a, g
    return None


def _presentation_holds(values, moduli, L, m):
    """Whether h is a homomorphism from the finite abelian level
    K_n = (+) Z/d_i (the Smith coordinates with d_i != 1) into the group
    L_m, given values = [h(a) for a in AbelianTarget.elements(n)].

    Element t of that list has the mixed-radix digits of t as Smith
    coordinates, the last coordinate fastest, so e_i is element s_i, the
    product of the moduli after i. Besides h(e) = e this tests
    |K_n| - 1 + r + r(r-1)/2 of the pairs (a, g_i) that
    _homomorphism_witness tests (r generators g_i = e_i):

    - one tree edge into each a != e: (a - e_i, g_i), with i the last
      nonzero coordinate of a (element t - s_i);
    - the relators ((d_i - 1) e_i, g_i);
    - the commutators (e_x, g_y) for x > y.

    Write x_i = h(g_i). From h(e) = e the tree edges give, by induction on
    t, h(a) = x_1^{a_1} ... x_r^{a_r} for every a (0 <= a_i < d_i). So the
    relator pair says x_i^{d_i - 1} x_i = e, and the commutator pair says
    x_y x_x = h(e_x + e_y) = x_x x_y. K_n is presented by the generators
    g_i with relations g_i^{d_i} and [g_x, g_y], so by von Dyck's theorem
    g_i -> x_i extends to a homomorphism K_n -> L_m; it sends a to
    x_1^{a_1} ... x_r^{a_r} = h(a), so h is that homomorphism. Conversely a
    homomorphism passes every pair. So the answer is the verdict of the
    pairs (a, generator), in fewer products.
    """
    mul, e = L.mul, values[0]
    if e != L.identity(m):
        return False
    gens = []  # (s_i, d_i) for the coordinates with d_i != 1, in order
    stride = 1
    for d in reversed(moduli):
        if d != 1:
            gens.append((stride, d))
        stride *= d
    gens.reverse()
    for s, d in gens:
        x = values[s]
        for t in range(s, len(values), s):
            if (t // s) % d and values[t] != mul(m, values[t - s], x):
                return False
    for s, d in gens:
        if mul(m, values[(d - 1) * s], values[s]) != e:
            return False
    for k, (sx, _) in enumerate(gens):
        for sy, _ in gens[:k]:
            if values[sx + sy] != mul(m, values[sx], values[sy]):
                return False
    return True


def is_strictly_multiplicative(h, K, L):
    """n . (h x h) = h . m on every pair, levelwise, tested on the pairs
    (a, generator) of each level (see _homomorphism_witness); a level of an
    AbelianTarget is first tested through its presentation
    (_presentation_holds), and the pairs are tested only when that fails.
    Returns (True, None) or (False, (level, a, b)) with a pair that fails;
    b is a generator, or a = b = e when h(e) != e.
    """
    abelian = isinstance(K, AbelianTarget)
    for n in range(K.cap + 1):
        elements = K.elements(n)
        values = [h(n, a) for a in elements]
        if abelian and _presentation_holds(values, K._moduli[n], L, n):
            continue
        witness = _homomorphism_witness(dict(zip(elements, values)), K.generators(n), K, n, L, n)
        if witness:
            return False, (n, *witness)
    return True, None


def check_functoriality(e, f, g, h, K, L):
    """Both naturality identities of the star operation.

    e: FC -> FA, f: FA -> FB homomorphisms; g: B -> K a pointed map;
    h: K -> L a strictly multiplicative map between group targets.
    Raises ValueError with a witness pair if h is not multiplicative.
    """
    ok, witness = is_strictly_multiplicative(h, K, L)
    if not ok:
        raise ValueError(f"map between targets is not strictly multiplicative at {witness}")
    fg = star(f, g, K)
    # (f . e) . g = e^*(f . g) is condition (*) for (e, f, g)
    if not _condition_star(e, f, fg, g, K)[0]:
        return False
    # f . (g^*h) = (f . g)^*h
    gh_tables = []
    B = f.dst.base
    for n in range(B.cap + 1):
        gh_tables.append({x: h(n, g(n, x)) for x in B.elements[n]})
    gh = TargetMap(src=B, target=L, tables=gh_tables)
    lhs2 = star(f, gh, L)
    A = f.src.base
    for n in range(A.cap + 1):
        for a in f.src.generators(n):
            if lhs2(n, a) != h(n, fg(n, a)):
                return False
    return True


def conjugation_hom(F, base_word):
    """Conjugation by the degeneracy tower of a level-0 word; a valid
    self-homomorphism of the free simplicial group."""
    towers = [tuple(base_word)]
    for n in range(F.cap):
        towers.append(F.degeneracy(n, 0, towers[-1]))
    tables = []
    for n in range(F.cap + 1):
        w = towers[n]
        tables.append({g: word_reduce(w + ((g, 1),) + word_inv(w)) for g in F.generators(n)})
    return GroupHomMap(F, F, tables)


def power_hom(F, k):
    """Every generator to its k-th power; commutes with the induced maps
    because faces and degeneracies act letterwise."""
    tables = []
    for n in range(F.cap + 1):
        tables.append({g: tuple([(g, 1)] * k) if k >= 0 else tuple([(g, -1)] * (-k)) for g in F.generators(n)})
    return GroupHomMap(F, F, tables)


def codiscrete_target(elements, mult, inverse, identity, cap):
    """The vertex-power simplicial group of a finite group: level n is the
    (n+1)-fold product, faces delete and degeneracies repeat coordinates."""
    levels = []
    faces = {}
    degs = {}
    for n in range(cap + 1):
        elts = list(itertools.product(elements, repeat=n + 1))
        m = {}
        inv = {}
        for a in elts:
            inv[a] = tuple(inverse[x] for x in a)
            for b in elts:
                m[(a, b)] = tuple(mult[(x, y)] for x, y in zip(a, b))
        levels.append(FiniteGroupLevel(elements=elts, mult=m, inverse=inv, identity=tuple([identity] * (n + 1))))
    for n in range(1, cap + 1):
        faces[n] = [
            {a: a[:i] + a[i + 1 :] for a in levels[n].elements}
            for i in range(n + 1)
        ]
    for n in range(0, cap):
        degs[n] = [
            {a: a[: j + 1] + a[j:] for a in levels[n].elements}
            for j in range(n + 1)
        ]
    return FiniteGroupTarget(levels, faces, degs, cap)
