"""Inventory guard: every fault-model kind is proven, not just parsed.

REP004 keeps the state-category inventory honest by failing the build
when a category exists that the analysis layer does not aggregate.
This applies the same pattern to fault models: a kind registered in
``repro.faultlib`` must appear in the scalar-vs-batched equivalence
matrix *and* the journal round-trip matrix of
``tests/test_faultlib_models.py``, and must have a committed trial
digest in ``tests/oracles.py``.  The matrices and the digest table are
module-level literals read from source with :mod:`ast`, so a new model
that ships without any of these proofs fails here -- before a campaign
ever runs it.
"""

import ast
import os

from repro.faultlib import FAULT_MODEL_KINDS, parse_fault_model

_HERE = os.path.dirname(__file__)
_MODELS_TEST = os.path.join(_HERE, "test_faultlib_models.py")
_ORACLES = os.path.join(_HERE, "oracles.py")


def _literal(name, path=_MODELS_TEST, kind=tuple):
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and any(isinstance(target, ast.Name) and target.id == name
                        for target in node.targets):
            value = ast.literal_eval(node.value)
            assert isinstance(value, kind), \
                "%s must stay a literal %s" % (name, kind.__name__)
            return value
    raise AssertionError("%s not found in %s" % (name, path))


def _kinds_of(specs):
    return {parse_fault_model(spec).kind for spec in specs}


def test_every_kind_in_equivalence_matrix():
    """Scalar-vs-batched equivalence covers every registered kind."""
    assert _kinds_of(_literal("EQUIVALENCE_SPECS")) \
        == set(FAULT_MODEL_KINDS)


def test_every_kind_in_roundtrip_matrix():
    """Journal/dict round-trips cover every registered kind."""
    assert _kinds_of(_literal("ROUNDTRIP_SPECS")) \
        == set(FAULT_MODEL_KINDS)


def test_every_kind_has_a_digest():
    """Each equivalence spec, hence every kind, has a committed digest."""
    digests = _literal("MODEL_DIGESTS", path=_ORACLES, kind=dict)
    assert set(digests) == set(_literal("EQUIVALENCE_SPECS"))
    assert _kinds_of(digests) == set(FAULT_MODEL_KINDS)
    for digest in digests.values():
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_kind_registry_is_stable():
    """Kinds are unique, canonical, and include the paper's default."""
    assert len(set(FAULT_MODEL_KINDS)) == len(FAULT_MODEL_KINDS)
    assert "single_bit" in FAULT_MODEL_KINDS
    for spec in ("single_bit", "multi_bit:adjacent:2",
                 "burst:array:p=0.3", "stuck_at:0", "intermittent:4,1"):
        model = parse_fault_model(spec)
        assert model.kind in FAULT_MODEL_KINDS
