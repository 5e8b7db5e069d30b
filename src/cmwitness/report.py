"""Deterministic JSON report assembly for the classification pipeline.

A report is an ordered plain dict (insertion order is the contract) so
that ``render_json`` produces byte-identical output for identical jobs;
it writes json.dumps(indent=2, ensure_ascii=True)'s bytes directly,
without json's pure-Python indenting encoder.
This module alone knows the report's layout: the pipeline's result
types keep verified facts, and each block is built here from them.
Timings are recorded as null: wall-clock numbers would break the
golden-file byte comparison, and nothing downstream consumes them.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import AlgebraDesc, IdealGens, KElement, make_algebra
from .classifier import (
    CASE_A_BOTH,
    CASE_A_ONE,
    CASE_C_CM,
    CASE_C_NONCM_GRADE2,
    OUTSIDE_SCOPE,
    CmModuleCertificate,
    ConductorReport,
    RingPresentation,
    build_R,
    build_small_cm_certificate,
    classify,
    cm_verdict,
    conductor,
    presentation_complex,
)
from .errors import BoundTooLargeError, MalformedInputError
from .homology import VerifiedComplex, verify_column
from .poly import BaseRing, Poly, parse_poly

DEFAULT_OPTIONS = {"colon_search_degree": 6, "spot_check_seed": 1}

# Work grows about cubically in the number of variables, used or not;
# every worked example of the paper needs at most 3.
MAX_VARIABLES = 16

# Why the conductor is not given, for the cases where the theory does
# not identify it.
CONDUCTOR_UNIDENTIFIED = {
    CASE_A_BOTH: "the conductor is not identified for the tensor-split case",
    CASE_A_ONE: "the conductor is not identified for the tensor-split case",
    CASE_C_CM: "the conductor is not identified when Q is two-generated",
    CASE_C_NONCM_GRADE2: "the conductor is not identified in the grade-2 case",
}

MODULE_DESCRIPTION = (
    "M = (IP)^* = {x in K : x*I*P in A}; membership decided by "
    "testing x*i in P^* for each listed generator i of I"
)


def parse_ring(variables: object) -> BaseRing:
    """The ring of a job or family: 1 to MAX_VARIABLES variable names."""
    if not isinstance(variables, list) or not variables:
        raise MalformedInputError("variables must be a non-empty list of strings")
    if len(variables) > MAX_VARIABLES:
        raise BoundTooLargeError(
            "%d variables; limit is %d" % (len(variables), MAX_VARIABLES)
        )
    return BaseRing(tuple(variables))


def poly_text(spec: Dict[str, object], key: str) -> str:
    """The polynomial text of field ``key`` of a job or family: a string."""
    text = spec[key]
    if not isinstance(text, str):
        raise MalformedInputError("%s must be a string" % key)
    return text


def parse_job(job: Dict[str, object]) -> Tuple[BaseRing, Poly, Poly, Dict[str, int]]:
    """Validate and parse a job dict {variables, f, g, options?}."""
    if not isinstance(job, dict):
        raise MalformedInputError("job must be a JSON object")
    for key in job:
        if key not in ("variables", "f", "g", "options"):
            raise MalformedInputError("unknown job field %r" % key)
    for key in ("variables", "f", "g"):
        if key not in job:
            raise MalformedInputError("job is missing the %r field" % key)
    ring = parse_ring(job["variables"])
    f = parse_poly(poly_text(job, "f"), ring)
    g = parse_poly(poly_text(job, "g"), ring)
    options = dict(DEFAULT_OPTIONS)
    extra = job.get("options", {})
    if not isinstance(extra, dict):
        raise MalformedInputError("options must be a JSON object")
    for key, value in extra.items():
        if key not in DEFAULT_OPTIONS:
            raise MalformedInputError("unknown option %r" % key)
        if type(value) is not int or value < 0:
            raise MalformedInputError("option %r must be a non-negative integer" % key)
        options[key] = value
    return ring, f, g, options


def _witnesses_block(alg: AlgebraDesc) -> Dict[str, Optional[str]]:
    out: Dict[str, Optional[str]] = {
        "h1": None,
        "a": None,
        "h2": None,
        "b": None,
        "a_prime": None,
        "b_prime": None,
    }
    if alg.wf is not None:
        out["h1"] = str(alg.wf.h)
        out["a"] = str(alg.wf.a)
    if alg.wg is not None:
        out["h2"] = str(alg.wg.h)
        out["b"] = str(alg.wg.a)
    if alg.w4f is not None:
        out["a_prime"] = str(alg.w4f.a_prime)
    if alg.w4g is not None:
        out["b_prime"] = str(alg.w4g.a_prime)
    return out


def _element(x: KElement) -> Dict[str, object]:
    return {"coords": [str(c) for c in x.coords], "denom_exp": x.denom_exp}


def _elements(xs: Sequence[KElement]) -> List[Dict[str, object]]:
    return [_element(x) for x in xs]


def _ideal_block(ideal: IdealGens) -> Dict[str, object]:
    return {"name": ideal.name, "gens": _elements(ideal.gens)}


def _presentation_block(pres: RingPresentation) -> Dict[str, object]:
    out: Dict[str, object] = {
        "case": pres.case,
        "sfree": pres.sfree,
        "cm_verdict": pres.sfree,
        "generators": _elements(pres.generators),
        "quadratics": [
            {"index": i, "c1": _element(c1), "c0": _element(c0)}
            for i, c1, c0 in pres.quadratics
        ],
    }
    if pres.mult_table is not None:
        out["mult_table"] = {
            "%d,%d" % key: [str(fr) for fr in sol]
            for key, sol in sorted(pres.mult_table.items())
        }
    if pres.relation is not None:
        # R = S^2 (+) Syz^2(S/Q): the columns of d2 of the resolution of
        # S/Q generate Syz^2 and the column of d3 is their relation.
        _, d2, d3 = pres.resolution_S_mod_Q.complex.matrices
        out["presentation"] = {
            "structure": "S^2 (+) Syz^2(S/Q)",
            "s_free_part_rank": 2,
            "module_generators": _elements(pres.generators),
            "relation": [str(p) for p in pres.relation],
            "syz2_generators": [
                [str(row[j]) for row in d2] for j in range(len(d2[0]))
            ],
            "syz2_relation": [str(row[0]) for row in d3],
        }
    return out


def _conductor_block(case: str, cond: ConductorReport) -> Dict[str, object]:
    # conductor() returns an ideal only after it is verified to conduct R
    known = cond.ideal is not None
    out: Dict[str, object] = {
        "case": case,
        "available": known,
        "verified": known,
        "reason": CONDUCTOR_UNIDENTIFIED.get(case, ""),
    }
    if known:
        out["ideal"] = _ideal_block(cond.ideal)
    if cond.ideal_J is not None:
        out["j_datum"] = {
            "ideal": _ideal_block(cond.ideal_J),
            "claim": "J^* = R",
            "verified_R_subset_J_star": cond.R_in_J_star,
        }
    return out


def _certificate_block(case: str, cert: CmModuleCertificate) -> Dict[str, object]:
    return {
        "case": case,
        "checks": {k: cert.checks[k] for k in sorted(cert.checks)},
        "all_pass": cert.all_pass(),
        "module": MODULE_DESCRIPTION,
        "ideals": {
            i.name: _elements(i.gens)
            for i in (cert.ideal_P, cert.ideal_I, cert.ideal_H)
        },
    }


def _verified_complex_block(res: VerifiedComplex, name: str) -> Dict[str, object]:
    cx = res.complex
    return {
        "name": name,
        "labels": list(cx.labels),
        "augmented": cx.augmented,
        "matrices": [
            [[str(entry) for entry in row] for row in mat] for mat in cx.matrices
        ],
        # the verify_* functions raise rather than return an unverified complex
        "verified": True,
        "pd_bound": res.pd_bound,
        "depth": res.depth,
        "grade_witnesses": [[str(w) for w in ws] for ws in res.witnesses],
    }


def assemble_report(
    ring: BaseRing, f: Poly, g: Poly, options: Optional[Dict[str, int]] = None
) -> Dict[str, object]:
    """Run the full pipeline and assemble the ordered report dict.

    Raises a RejectedInputError for rejected inputs and an InternalError
    when a structural identity fails; the CLI maps those to exit codes
    2 and 3 respectively.
    """
    if options is None:
        options = dict(DEFAULT_OPTIONS)
    alg = make_algebra(ring, f, g)
    case = classify(alg)
    cm = cm_verdict(case)

    report: Dict[str, object] = {
        "input": {
            "variables": list(ring.variables),
            "f": str(f),
            "g": str(g),
        },
        "case": case,
        "cm": cm,
        "witnesses": _witnesses_block(alg),
    }
    if case == OUTSIDE_SCOPE:
        report["q_shape"] = None
        report["ring_presentation"] = None
        report["conductor"] = None
        report["certificate"] = None
        report["resolutions"] = []
    else:
        shape = alg.q_shape
        report["q_shape"] = {
            "tag": shape.tag,
            "z": str(shape.z),
            "c": str(shape.c),
            "e": str(shape.e),
        }
        pres = build_R(alg, case)
        report["ring_presentation"] = _presentation_block(pres)
        report["conductor"] = _conductor_block(case, conductor(pres))
        if not pres.sfree:
            cert = build_small_cm_certificate(pres)
            report["certificate"] = _certificate_block(case, cert)
            report["resolutions"] = [
                _verified_complex_block(cert.resolution_I, "resolution_of_I"),
                _verified_complex_block(
                    pres.resolution_S_mod_Q, "resolution_of_S_mod_Q"
                ),
                _verified_complex_block(
                    verify_column(presentation_complex(pres)), "R_presentation"
                ),
            ]
        else:
            report["certificate"] = None
            report["resolutions"] = []
    report["options"] = {k: options[k] for k in sorted(options)}
    report["timings"] = None
    return report


def render_json(report: Dict[str, object]) -> str:
    """Canonical JSON text: two-space indent, insertion order, LF, ASCII.

    The bytes of json.dumps(report, indent=2, ensure_ascii=True) + "\n",
    written directly (strings escaped by json's own encoder); a value
    json would print some other way (a float, tuple or set, a dict key
    that is not a string) raises TypeError.
    """
    return _json_text(report, "\n") + "\n"


def _json_text(value: object, newline: str) -> str:
    """value's text in json.dumps(indent=2); newline opens its lines."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError("report key %r is not a string" % (k,))
            items.append(encode_basestring_ascii(k) + ": " + _json_text(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError("a report holds no %s value" % type(value).__name__)
