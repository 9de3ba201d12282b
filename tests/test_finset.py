from itertools import product as iproduct

import pytest

from commuter.errors import SizeError, TypingError
from commuter.finset import (
    SIZE_LIMIT,
    CoprodJ,
    Compose,
    FinSetMap,
    FinSetObj,
    Id,
    PowerS,
    TimesS,
    _power_size,
    atom_strong_check,
    canonical_alpha,
    compose_maps,
    eval_map,
    eval_obj,
    hom_transpose_bijection,
    identity_map,
    retract_of_one,
)
from commuter.rng import Lcg

SHAPES = (Id(), TimesS(2), PowerS(2), CoprodJ(3), Compose(TimesS(2), PowerS(2)))
ATOMS = (Id(),) + tuple(cls(n) for cls in (TimesS, PowerS, CoprodJ) for n in range(4))
DEPTH_TWO = ATOMS + tuple(Compose(outer, inner) for outer in ATOMS for inner in ATOMS)


def random_map(dom: FinSetObj, cod: FinSetObj, rng: Lcg) -> FinSetMap:
    return FinSetMap(dom, cod, tuple(rng.randrange(cod.size) for _ in range(dom.size)))


# ---------------------------------------------------------------- plumbing

def test_map_validation():
    two, three = FinSetObj(2), FinSetObj(3)
    with pytest.raises(TypingError):
        FinSetMap(two, three, (0,))  # wrong table length
    with pytest.raises(TypingError):
        FinSetMap(two, three, (0, 3))  # value out of range
    with pytest.raises(TypingError, match="^table value 5 outside codomain of size 3$"):
        FinSetMap(two, three, (5, -1))  # the first bad value is named, not the least
    with pytest.raises(ValueError):
        FinSetObj(-1)
    with pytest.raises(SizeError):
        FinSetObj(SIZE_LIMIT + 1)
    with pytest.raises(SizeError, match="over 10\\^18"):
        FinSetObj(10**5000)  # past str()'s 4300 digits


def test_map_predicates():
    two, three = FinSetObj(2), FinSetObj(3)
    inj = FinSetMap(two, three, (2, 0))
    assert inj.is_injective and not inj.is_surjective and not inj.is_bijective
    surj = FinSetMap(three, two, (0, 1, 0))
    assert surj.is_surjective and not surj.is_injective
    perm = FinSetMap(two, two, (1, 0))
    assert perm.is_bijective
    empty = FinSetMap(FinSetObj(0), FinSetObj(0), ())
    assert empty.is_bijective


def test_compose_maps_order():
    two, three = FinSetObj(2), FinSetObj(3)
    f = FinSetMap(two, three, (1, 2))
    g = FinSetMap(three, two, (0, 0, 1))
    gf = compose_maps(f, g)
    assert gf.table == (0, 1)  # g applied after f
    with pytest.raises(TypingError):
        compose_maps(f, identity_map(two))  # f ends in a 3-set


def test_power_encoding_roundtrip():
    assert encode_power((2, 1), 4) == 6  # 2 * 1 + 1 * 4, little-endian
    assert decode_power(6, 4, 2) == (2, 1)
    for code in range(27):
        assert encode_power(decode_power(code, 3, 3), 3) == code


# ---------------------------------------------------------------- functors

def test_eval_obj_sizes():
    c = FinSetObj(3)
    assert eval_obj(Id(), c).size == 3
    assert eval_obj(TimesS(2), c).size == 6
    assert eval_obj(PowerS(2), c).size == 9
    assert eval_obj(CoprodJ(4), c).size == 12
    assert eval_obj(Compose(TimesS(2), PowerS(2)), c).size == 18
    assert eval_obj(PowerS(0), FinSetObj(0)).size == 1  # empty exponent


def test_eval_obj_size_guard():
    with pytest.raises(SizeError):
        eval_obj(PowerS(7), FinSetObj(10))


def test_powers_refused_before_they_are_computed():
    with pytest.raises(SizeError, match=r"2\^30 exceeds limit"):
        hom_transpose_bijection(30, 1, 2)  # would list 2**30 maps
    assert not hom_transpose_bijection(1, 30, 2)  # only the target hom set is too big
    with pytest.raises(SizeError, match=r"10\^10000000 exceeds limit"):
        eval_obj(PowerS(10**7), FinSetObj(10))
    with pytest.raises(SizeError):
        canonical_alpha(PowerS(10**6), 2, FinSetObj(2))  # the strength 2 x 2^D -> 4^D
    with pytest.raises(SizeError):
        canonical_alpha(PowerS(10**6), 2, FinSetObj(1))  # the constants map 2 -> 2^D
    assert canonical_alpha(PowerS(10**6), 1, FinSetObj(1)).table == (0,)


def test_eval_map_times_table():
    f = FinSetMap(FinSetObj(3), FinSetObj(2), (1, 0, 1))
    m = eval_map(TimesS(2), f)
    assert (m.dom.size, m.cod.size) == (6, 4)
    assert m.table == (1, 0, 1, 3, 2, 3)


def test_eval_map_power_table():
    f = FinSetMap(FinSetObj(3), FinSetObj(2), (1, 0, 1))
    m = eval_map(PowerS(2), f)
    assert (m.dom.size, m.cod.size) == (9, 4)
    assert m.table == (3, 2, 3, 1, 0, 1, 3, 2, 3)


def test_eval_map_coprod_table():
    f = FinSetMap(FinSetObj(2), FinSetObj(2), (1, 0))
    m = eval_map(CoprodJ(2), f)
    assert m.table == (1, 0, 3, 2)


def test_eval_map_empty_domain_power():
    f = FinSetMap(FinSetObj(0), FinSetObj(2), ())
    m = eval_map(PowerS(2), f)  # 0^2 = 0 functions into a 0-set... of size 0
    assert m.dom.size == 0
    assert m.table == ()


def test_unbounded_parameters_on_empty_and_trivial_sets():
    # each would take 10**12 steps if it walked its copies or places
    assert canonical_alpha(TimesS(1), 10**12, FinSetObj(0)).table == ()
    assert canonical_alpha(TimesS(10**12), 1, FinSetObj(0)).table == ()
    assert canonical_alpha(PowerS(3), 10**21, FinSetObj(0)).table == ()
    one = identity_map(FinSetObj(1))
    assert eval_map(PowerS(10**12), one) == one


@pytest.mark.parametrize("expr", SHAPES, ids=str)
def test_functoriality(expr):
    rng = Lcg(7)
    for _ in range(8):
        a = FinSetObj(1 + rng.randrange(3))
        b = FinSetObj(1 + rng.randrange(3))
        c = FinSetObj(1 + rng.randrange(3))
        f = random_map(a, b, rng)
        g = random_map(b, c, rng)
        assert eval_map(expr, identity_map(a)) == identity_map(eval_obj(expr, a))
        assert eval_map(expr, compose_maps(f, g)) == compose_maps(
            eval_map(expr, f), eval_map(expr, g)
        )


# ------------------------------------------------- element-by-element reference

def encode_power(values: tuple[int, ...], base: int) -> int:
    total = 0
    for d0 in range(len(values) - 1, -1, -1):
        total = total * base + values[d0]
    return total


def decode_power(code: int, base: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(code % base)
        code //= base
    return tuple(out)


def reference_eval_map(expr, f: FinSetMap) -> FinSetMap:
    """F(f) built one table entry at a time."""
    match expr:
        case Id():
            return f
        case TimesS(n) | CoprodJ(n):
            table = tuple(n0 * f.cod.size + f.table[c0] for n0 in range(n) for c0 in range(f.dom.size))
        case PowerS(s):
            table = tuple(
                encode_power(tuple(f.table[v] for v in decode_power(code, max(f.dom.size, 1), s)), f.cod.size)
                for code in range(eval_obj(expr, f.dom).size)
            )
        case Compose(outer, inner):
            return reference_eval_map(outer, reference_eval_map(inner, f))
    return FinSetMap(eval_obj(expr, f.dom), eval_obj(expr, f.cod), table)


def inclusion(j0: int, j: int, c: FinSetObj) -> FinSetMap:
    """The j0-th coprojection C -> (j copies of C)."""
    if not 0 <= j0 < j:
        raise ValueError(f"copy index {j0} outside range({j})")
    cop = FinSetObj(j * c.size)
    return FinSetMap(c, cop, tuple(j0 * c.size + c0 for c0 in range(c.size)))


def reference_alpha(expr, j: int, c: FinSetObj) -> FinSetMap:
    """canonical_alpha as F applied to each coprojection in turn."""
    fc = eval_obj(expr, c)
    cod = eval_obj(expr, FinSetObj(j * c.size))
    table: list[int] = []
    for j0 in range(j):
        table.extend(reference_eval_map(expr, inclusion(j0, j, c)).table)
    return FinSetMap(FinSetObj(j * fc.size), cod, tuple(table))


def reference_strength(j: FinSetObj, y: FinSetObj, d: FinSetObj) -> FinSetMap:
    """J x (Y^D) -> (J x Y)^D, sending (j0, f) to d0 |-> (j0, f(d0))."""
    jn, yn, dn = j.size, y.size, d.size
    yd = FinSetObj(_power_size(yn, dn))
    dom = FinSetObj(jn * yd.size)
    cod = FinSetObj(_power_size(jn * yn, dn))
    table = []
    for j0 in range(jn):
        for code in range(yd.size):
            f = decode_power(code, max(yn, 1), dn)
            g = tuple(j0 * yn + f[d0] for d0 in range(dn))
            table.append(encode_power(g, jn * yn))
    return FinSetMap(dom, cod, tuple(table))


def reference_constants(j: FinSetObj, d: FinSetObj) -> FinSetMap:
    """J -> J^D, sending each element to the constant function at it."""
    jn, dn = j.size, d.size
    cod = FinSetObj(_power_size(jn, dn))
    table = tuple(encode_power((j0,) * dn, max(jn, 1)) for j0 in range(jn))
    return FinSetMap(j, cod, table)


def projection(x: int, d: int) -> FinSetMap:
    """X x D -> X, pairs encoded x0 * d + d0."""
    dom = FinSetObj(x * d)
    return FinSetMap(dom, FinSetObj(x), tuple(x0 for x0 in range(x) for _ in range(d)))


def reference_transpose(x: int, d: int, j: int) -> bool:
    """hom_transpose_bijection by listing hom(X, J) and precomposing each
    map with the projection X x D -> X."""
    proj = projection(x, d).table
    FinSetObj(j)  # the codomain of every listed map
    _power_size(j, x)  # refuse before listing hom(X, J)
    try:
        total = _power_size(j, x * d)
    except SizeError:
        return False  # hom(X x D, J) outnumbers hom(X, J), which fits the limit
    images = {tuple(f[x0] for x0 in proj) for f in iproduct(range(j), repeat=x)}
    return len(images) == j**x == total


def outcome(fn, *args):
    try:
        return fn(*args)
    except SizeError as e:
        return str(e)


def assert_same_map(got, want) -> bool:
    """Equal maps, or the same refusal; True when a map was built."""
    assert got == want
    if isinstance(got, str):
        return False
    assert type(got.table) is tuple and all(type(v) is int for v in got.table)
    return True


def test_tables_match_elementwise_reference():
    # per pair of sizes: the cyclic map, its reversal and a constant
    maps = [
        FinSetMap(FinSetObj(dom), FinSetObj(cod), tuple(rule(d0) % cod for d0 in range(dom)))
        for dom in range(4)
        for cod in range(1 if dom else 0, 4)
        for rule in (lambda d0: d0, lambda d0: dom - 1 - d0, lambda d0: cod - 1)
    ]
    built = 0
    for expr in DEPTH_TWO:
        for f in maps:
            built += assert_same_map(outcome(eval_map, expr, f), outcome(reference_eval_map, expr, f))
        for j in range(4):
            for c in range(4):
                c_obj = FinSetObj(c)
                built += assert_same_map(
                    outcome(canonical_alpha, expr, j, c_obj), outcome(reference_alpha, expr, j, c_obj)
                )
    assert built >= 10000  # nearly every case fits SIZE_LIMIT, so tables are compared, not only refusals


def test_strength_matches_elementwise_reference():
    built = 0
    for jn in range(6):
        for yn in range(6):
            for dn in range(6):
                got = outcome(canonical_alpha, PowerS(dn), jn, FinSetObj(yn))
                want = outcome(reference_strength, FinSetObj(jn), FinSetObj(yn), FinSetObj(dn))
                built += assert_same_map(got, want)
    assert built == 212  # refused only where (J x Y)^5 has 16^5, 20^5 (twice) or 25^5 elements


def test_constants_map_and_atom_rows_match_elementwise_reference():
    for dn in range(12):
        for jn in range(12):
            assert_same_map(
                outcome(canonical_alpha, PowerS(dn), jn, FinSetObj(1)),
                outcome(reference_constants, FinSetObj(jn), FinSetObj(dn)),
            )
    for dn in range(6):
        for max_j in range(2, 6):
            rows = [outcome(reference_constants, FinSetObj(jn), FinSetObj(dn)) for jn in range(max_j + 1)]
            refused = next((r for r in rows if isinstance(r, str)), None)
            want = refused or (
                tuple(m.is_bijective for m in rows),
                tuple((m.dom.size, m.cod.size) for m in rows),
            )
            report = outcome(atom_strong_check, FinSetObj(dn), max_j)
            assert (report if isinstance(report, str) else (report.bijective, report.sizes)) == want


# x = 0: both hom sets hold only the empty map, however large J^D is; a J
# past the limit is still refused
EMPTY_X_CASES = ((0, 30, 2), (0, 10**6, 2), (0, 5, 10**6), (0, 5, 10**6 + 1))
# hom(X, J) past the limit is refused; past it only in hom(X x D, J) is not a bijection
OVERSIZE_CASES = ((30, 1, 2), (1, 30, 2), (3, 7, 8))


def test_transpose_matches_listing_reference():
    grid = tuple(iproduct(range(8), repeat=3))
    for x, d, j in grid + EMPTY_X_CASES + OVERSIZE_CASES:
        assert outcome(hom_transpose_bijection, x, d, j) == outcome(reference_transpose, x, d, j), (x, d, j)
    assert [outcome(hom_transpose_bijection, *c) for c in EMPTY_X_CASES] == [
        True, True, True, "set of size 1000001 exceeds limit 1000000"
    ]


# ---------------------------------------------------------------- comparisons

def test_inclusion_tables():
    c = FinSetObj(2)
    assert inclusion(0, 3, c).table == (0, 1)
    assert inclusion(1, 3, c).table == (2, 3)
    assert inclusion(2, 3, c).table == (4, 5)
    with pytest.raises(ValueError):
        inclusion(3, 3, c)


def test_canonical_alpha_identity_functor():
    c = FinSetObj(3)
    assert canonical_alpha(Id(), 2, c) == identity_map(FinSetObj(6))


def test_canonical_alpha_times_is_permutation():
    m = canonical_alpha(TimesS(2), 2, FinSetObj(2))
    assert m.table == (0, 1, 4, 5, 2, 3, 6, 7)
    assert m.is_bijective


def test_canonical_alpha_power_fails():
    m = canonical_alpha(PowerS(2), 2, FinSetObj(1))
    assert (m.dom.size, m.cod.size) == (2, 4)
    assert m.table == (0, 3)  # the two constant functions
    assert m.is_injective and not m.is_bijective


def test_canonical_alpha_times_grid():
    for s in range(1, 4):
        for j in range(1, 4):
            for c in range(1, 4):
                assert canonical_alpha(TimesS(s), j, FinSetObj(c)).is_bijective


def test_canonical_alpha_naturality():
    rng = Lcg(11)
    for expr in SHAPES:
        for _ in range(6):
            c1 = FinSetObj(1 + rng.randrange(3))
            c2 = FinSetObj(1 + rng.randrange(3))
            j = 1 + rng.randrange(3)
            f = random_map(c1, c2, rng)
            lhs = compose_maps(
                canonical_alpha(expr, j, c1),
                eval_map(expr, eval_map(CoprodJ(j), f)),
            )
            rhs = compose_maps(
                eval_map(CoprodJ(j), eval_map(expr, f)),
                canonical_alpha(expr, j, c2),
            )
            assert lhs == rhs


# ---------------------------------------------------------------- strength

def test_strength_small_is_identity():
    m = canonical_alpha(PowerS(1), 2, FinSetObj(2))
    assert m.table == (0, 1, 2, 3)


def test_strength_shape_and_entry():
    m = canonical_alpha(PowerS(2), 2, FinSetObj(2))
    assert (m.dom.size, m.cod.size) == (8, 16)
    assert m.is_injective and not m.is_surjective
    # (j0=1, f=(0,1)) sits at index 1*4+2 and lands on the function (2,3)
    assert m.table[6] == 2 + 3 * 4


def test_natural_map_constants():
    m = canonical_alpha(PowerS(2), 2, FinSetObj(1))
    assert m.table == (0, 3)
    assert canonical_alpha(PowerS(3), 1, FinSetObj(1)).table == (0,)
    collapsed = canonical_alpha(PowerS(0), 2, FinSetObj(1))
    assert (collapsed.dom.size, collapsed.cod.size) == (2, 1)
    assert collapsed.table == (0, 0)


# ---------------------------------------------------------------- atoms

def test_retract_of_one():
    assert not retract_of_one(FinSetObj(0))
    assert retract_of_one(FinSetObj(1))
    assert not retract_of_one(FinSetObj(2))
    assert not retract_of_one(FinSetObj(3))


def test_atom_verdicts():
    for d in range(4):
        report = atom_strong_check(FinSetObj(d), max_j=4)
        assert report.consistent == (d == 1)
        assert report.retract == (d == 1)
        assert report.d_size == d
        assert len(report.bijective) == 5


def test_atom_failure_rows():
    two = atom_strong_check(FinSetObj(2), max_j=4)
    assert two.failures() == [2, 3, 4]
    assert two.sizes[2] == (2, 4)
    zero = atom_strong_check(FinSetObj(0), max_j=4)
    assert zero.failures() == [0, 2, 3, 4]
    assert zero.sizes[0] == (0, 1)
    one = atom_strong_check(FinSetObj(1), max_j=4)
    assert one.failures() == []
    assert one.sizes == ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4))


def test_atom_check_needs_informative_scan():
    with pytest.raises(ValueError):
        atom_strong_check(FinSetObj(1), max_j=1)


def test_atom_scan_bounded_by_its_table_entries():
    assert atom_strong_check(FinSetObj(0), max_j=1413).failures()[:3] == [0, 2, 3]  # 998,991 entries
    with pytest.raises(SizeError, match=r"^atom scan to \|J\| = 1414: sum of \|J\| exceeds limit 1000000$"):
        atom_strong_check(FinSetObj(1), max_j=1414)  # 1,000,405 entries
    with pytest.raises(SizeError, match="exceeds limit"):
        atom_strong_check(FinSetObj(1), max_j=10**9)


# ---------------------------------------------------------------- transposes

def test_projection_table():
    assert projection(2, 3).table == (0, 0, 0, 1, 1, 1)


def test_transpose_bijection_iff_d_is_one():
    for x in range(1, 4):
        for j in range(1, 4):
            assert hom_transpose_bijection(x, 1, j)
    assert not hom_transpose_bijection(1, 2, 2)
    assert not hom_transpose_bijection(2, 2, 2)
    assert not hom_transpose_bijection(1, 0, 2)  # empty exponent collapses hom


def test_transpose_degenerate_corners():
    assert hom_transpose_bijection(0, 0, 2)  # both hom sets are singletons
    assert hom_transpose_bijection(1, 1, 1)
