"""Free complexes, Buchsbaum-Eisenbud exactness, grade witnesses."""

import pytest

from cmwitness.errors import (
    LiftInvalidError,
    MalformedSequenceError,
    MissingCertificateError,
    UnverifiedComplexError,
    WitnessMismatchError,
)
from cmwitness.homology import (
    FreeComplex,
    be_exactness_check,
    check_composition_zero,
    kernel_saturation_check,
    minor_ideal_generators,
    pd_depth_report,
    resolution_of_I,
    resolution_of_S_mod_Q,
    standard_grade_certificates,
    verify_complex,
)
from cmwitness.linalg import DimensionMismatchError
from cmwitness.poly import BaseRing, parse_poly
from cmwitness.predicates import decompose_S2
from cmwitness.report import assemble_report, parse_job

RING2 = BaseRing(("X", "Y"))
RING3 = BaseRing(("V", "X", "Y"))


def family2_witnesses():
    f = parse_poly("-X^2+4", RING2)
    g = parse_poly("-Y^2+4", RING2)
    return decompose_S2(f), decompose_S2(g)


def family1_witnesses():
    f = parse_poly("V^2*X^2-2*X^2+4", RING3)
    g = parse_poly("V^2*Y^2-2*Y^2+4", RING3)
    return decompose_S2(f), decompose_S2(g)


def test_resolution_of_I_family2():
    wf, wg = family2_witnesses()
    cx = resolution_of_I(wf, wg)
    assert cx.augmented
    assert check_composition_zero(cx)
    X, Y = RING2.gens()
    # psi transpose is [-h2, h1, 2] = [-Y, X, 2].
    tail = [row[0] for row in cx.matrices[1]]
    assert tail == [-Y, X, RING2.const(2)]
    # phi columns: 2w, 2u, h2 w - h1 u in the (1, w, u, wu) coordinates.
    phi = cx.matrices[0]
    assert phi[1][0] == RING2.const(2) and phi[2][1] == RING2.const(2)
    assert phi[1][2] == Y and phi[2][2] == -X


def test_resolution_of_I_family1():
    wf, wg = family1_witnesses()
    cx = resolution_of_I(wf, wg)
    V, X, Y = RING3.gens()
    tail = [row[0] for row in cx.matrices[1]]
    assert tail == [-(V * Y), V * X, RING3.const(2)]
    assert check_composition_zero(cx)


def test_resolution_of_I_rejects_double_2S():
    # f, g both in 2S means h1 = h2 = 0: no such algebra reaches the
    # resolution builder, and it must refuse rather than emit garbage.
    f = parse_poly("2*X", RING2)
    g = parse_poly("2*Y", RING2)
    wf, wg = decompose_S2(f), decompose_S2(g)
    with pytest.raises(WitnessMismatchError):
        resolution_of_I(wf, wg)


def test_resolution_of_S_mod_Q_family1():
    V, X, Y = RING3.gens()
    cx = resolution_of_S_mod_Q(V, X, Y)
    assert check_composition_zero(cx)
    assert [row[0] for row in cx.matrices[2]] == [-Y, X, RING3.const(-2)]
    assert cx.matrices[0] == [[RING3.const(2), V * X, V * Y]]
    # Middle matrix is Phi = [[zc, ze, 0], [-2, 0, e], [0, -2, -c]].
    assert cx.matrices[1] == [
        [V * X, V * Y, RING3.zero()],
        [RING3.const(-2), RING3.zero(), Y],
        [RING3.zero(), RING3.const(-2), -X],
    ]


def test_resolution_of_S_mod_Q_extras():
    V, X, Y = RING3.gens()
    cx = resolution_of_S_mod_Q(V, X, Y)
    # The Syz^2 generators the non-CM presentation reports are the
    # columns of d_2, and their relation is the column of d_3.
    d2, d3 = cx.matrices[1], cx.matrices[2]
    assert [[row[j] for row in d2] for j in range(3)] == [
        [V * X, RING3.const(-2), RING3.zero()],
        [V * Y, RING3.zero(), RING3.const(-2)],
        [RING3.zero(), Y, -X],
    ]
    assert [row[0] for row in d3] == [-Y, X, RING3.const(-2)]


def test_resolution_of_S_mod_Q_family2():
    X, Y = RING2.gens()
    cx = resolution_of_S_mod_Q(RING2.one(), X, Y)
    assert check_composition_zero(cx)
    assert cx.matrices[0] == [[RING2.const(2), X, Y]]


def test_resolution_of_S_mod_Q_unit_c():
    # (1, 1, e): Q two-generated, the complex still composes to zero.
    X, Y = RING2.gens()
    cx = resolution_of_S_mod_Q(RING2.one(), RING2.one(), Y)
    assert check_composition_zero(cx)


def test_resolution_of_S_mod_Q_rejects_even_z():
    X, Y = RING2.gens()
    with pytest.raises(LiftInvalidError):
        resolution_of_S_mod_Q(X.scale(2), X, Y)


def test_composition_zero_detects_corruption():
    wf, wg = family2_witnesses()
    cx = resolution_of_I(wf, wg)
    bad_tail = [[-(row[0]) if i == 0 else row[0]] for i, row in enumerate(cx.matrices[1])]
    corrupted = FreeComplex(
        matrices=[cx.matrices[0], bad_tail],
        labels=list(cx.labels),
        augmented=True,
    )
    assert not check_composition_zero(corrupted)


def test_be_exactness_family2_resolutions():
    wf, wg = family2_witnesses()
    cx = resolution_of_I(wf, wg)
    certs = standard_grade_certificates(cx)
    assert check_composition_zero(cx)
    assert be_exactness_check(cx, certs)
    X, Y = RING2.gens()
    q_cx = resolution_of_S_mod_Q(RING2.one(), X, Y)
    q_certs = standard_grade_certificates(q_cx)
    assert be_exactness_check(q_cx, q_certs)
    # The grade-3 witness for the length-3 stage is (2, X, Y).
    assert [str(p) for p in q_certs[-1]] == ["2", "X", "Y"]


def test_be_exactness_family1_resolutions():
    V, X, Y = RING3.gens()
    q_cx = resolution_of_S_mod_Q(V, X, Y)
    q_certs = standard_grade_certificates(q_cx)
    assert be_exactness_check(q_cx, q_certs)
    wf, wg = family1_witnesses()
    cx = resolution_of_I(wf, wg)
    assert be_exactness_check(cx, standard_grade_certificates(cx))


def test_be_exactness_rejects_rank_violation():
    # Two generic 2x2 matrices with nonzero product violate both
    # composition-zero and the rank additivity count.
    X, Y = RING2.gens()
    m1 = [[X, Y], [Y, X]]
    m2 = [[X, RING2.zero()], [RING2.zero(), X]]
    cx = FreeComplex(matrices=[m1, m2], labels=["F0", "F1", "F2"], augmented=False)
    assert not be_exactness_check(cx, [[X], [X, Y]])


def test_be_exactness_rejects_wrong_minor_ideal():
    # d_1 of the resolution of I has 2x2 minors 4, -2X, -2Y (and zeros);
    # X is odd, so it lies outside that ideal and certifies nothing.
    wf, wg = family2_witnesses()
    cx = resolution_of_I(wf, wg)
    witnesses = standard_grade_certificates(cx)
    assert be_exactness_check(cx, witnesses)
    X, _ = RING2.gens()
    assert not be_exactness_check(cx, [[X]] + witnesses[1:])


def test_be_exactness_requires_certificates():
    wf, wg = family2_witnesses()
    cx = resolution_of_I(wf, wg)
    with pytest.raises(MissingCertificateError):
        be_exactness_check(cx, [])
    # A witness shorter than its position certifies too small a grade.
    first, second = standard_grade_certificates(cx)
    with pytest.raises(MissingCertificateError, match="position 2"):
        be_exactness_check(cx, [first, second[:1]])


def test_grade_certificate_validate():
    # The resolution of S/Q for Q = (2, X, Y): d_1 = [2, X, Y] and the
    # tail column [-Y, X, -2], whose 1x1 minors contain (2, X, Y).
    X, Y = RING2.gens()
    two = RING2.const(2)
    cx = resolution_of_S_mod_Q(RING2.one(), X, Y)
    first, second, _ = standard_grade_certificates(cx)
    assert be_exactness_check(cx, [first, second, [two, X, Y]])
    # A unit outside the minor ideal: rejected.
    assert not be_exactness_check(cx, [[RING2.const(3)], second, [two, X, Y]])
    # Non-regular witness (repeated element mod 2): rejected.
    assert not be_exactness_check(cx, [first, second, [two, X, X]])
    with pytest.raises(MalformedSequenceError):
        be_exactness_check(cx, [[two, X, Y, X], second, [two, X, Y]])


def test_grade_certificate_ring_mismatch_raises():
    # A witness from another ring is a caller error, not "outside the ideal".
    X, Y = RING2.gens()
    cx = resolution_of_S_mod_Q(RING2.one(), X, Y)
    witnesses = standard_grade_certificates(cx)
    with pytest.raises(ValueError):
        be_exactness_check(cx, [[RING3.var("X")]] + witnesses[1:])


def test_pd_depth_report():
    wf, wg = family2_witnesses()
    cx = resolution_of_I(wf, wg)
    # d = dim S = nvars + 1 = 3 here; the augmented complex has pd 1.
    assert pd_depth_report(cx) == (1, 2)
    X, Y = RING2.gens()
    q_cx = resolution_of_S_mod_Q(RING2.one(), X, Y)
    assert pd_depth_report(q_cx) == (3, 0)
    V, X3, Y3 = RING3.gens()
    q_cx3 = resolution_of_S_mod_Q(V, X3, Y3)
    assert pd_depth_report(q_cx3) == (3, 1)
    # verify_complex records pd/depth only for a verified complex: here
    # d_1 d_2 = 4*X != 0, so it raises instead.
    two = RING2.const(2)
    broken = FreeComplex(
        matrices=[[[two, X]], [[X], [two]]], labels=["S", "S^2", "S"]
    )
    with pytest.raises(UnverifiedComplexError):
        verify_complex(broken)


def test_minor_ideal_generators():
    X, Y = RING2.gens()
    mat = [[X, Y], [RING2.const(2), RING2.zero()]]
    ones = minor_ideal_generators(mat, 1)
    assert X in ones and Y in ones and RING2.const(2) in ones
    twos = minor_ideal_generators(mat, 2)
    assert len(twos) == 1 and twos[0] == -Y.scale(2)


def test_kernel_saturation():
    wf, wg = family2_witnesses()
    cx = resolution_of_I(wf, wg)
    assert kernel_saturation_check(cx)
    # For the S/Q resolution the rank-1 tail sits one stage deeper:
    # check saturation of ker(Phi) against the [-e, c, -2] column.
    V, X, Y = RING3.gens()
    q_cx = resolution_of_S_mod_Q(V, X, Y)
    stage = FreeComplex(
        matrices=[q_cx.matrices[1], q_cx.matrices[2]],
        labels=["S^3", "S^3", "S"],
        augmented=False,
    )
    assert kernel_saturation_check(stage)
    with pytest.raises(DimensionMismatchError):
        kernel_saturation_check(
            FreeComplex(matrices=[[[X]]], labels=["F0", "F1"], augmented=False)
        )


def test_serialize_shape():
    # The report serialises the resolution of I first among the
    # resolutions of the grade-3 family (-X^2+4, -Y^2+4).
    ring, f, g, options = parse_job(
        {"variables": ["X", "Y"], "f": "-X^2+4", "g": "-Y^2+4"}
    )
    data = assemble_report(ring, f, g, options)["resolutions"][0]
    assert data["name"] == "resolution_of_I"
    assert data["augmented"] is True and data["verified"] is True
    assert data["labels"][0].startswith("A = S^4")
    assert data["matrices"][1] == [["-Y"], ["X"], ["2"]]
