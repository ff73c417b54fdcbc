"""Format audit: each certificate kind carries exactly the fields its replayer reads.

`replay_certificate` ignores keys its replayer does not read, so nothing
at replay time notices an emitter that writes a field no one checks, or
one that renames a field the replayer then reports missing.  This audit
reads each replayer's parameters from `src/dnrlab/certs.py` with `ast`:
the names of a function decorated `@_replayer("kind")`, and which of them
have defaults.  Every kind is emitted, from the default commands or from
the library calls that build the rest, and its keys must be `kind` plus
the replayer's parameters, where an optional parameter may be absent.

The same corpus checks the writer, `certs.certificate`: decoding every
field of a certificate by its rule and building it again gives the same
JSON, whichever module first wrote it.  The parameters the builder records
per kind must equal the `ast` reading above, and `cli.py` must hold no
certificate literal of its own.  Across the package, only the DNR audit
(`reductions._audit_certs`) writes its four kinds as dict literals, and
every replayer's kind has a writer in the package, so no replayer is left
that nothing can feed.

Two documentation checks ride along: every kind has a row in the kinds
table of `docs/formats.md`, and every field name with a rule in
`certs._FIELDS` appears in that file's table of rules.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from dnrlab import bushy, certs, cli
from dnrlab.asm import DIVERGE_INDEX, ZERO_INDEX, const_index
from dnrlab.dyadic import DyadicRational
from dnrlab.oracle import EVENS
from dnrlab.reductions import blocking_prefix, diagonal_set_index, dnr_reduction_audit

ROOT = Path(__file__).resolve().parent.parent
FORMATS = (ROOT / "docs" / "formats.md").read_text()


def replayer_parameters() -> dict[str, tuple[set[str], set[str]]]:
    """kind -> (required parameter names, optional ones), read from certs.py."""
    tree = ast.parse((ROOT / "src" / "dnrlab" / "certs.py").read_text())
    found = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for deco in node.decorator_list:
            if (isinstance(deco, ast.Call) and isinstance(deco.func, ast.Name)
                    and deco.func.id == "_replayer"):
                names = [a.arg for a in node.args.posonlyargs + node.args.args]
                cut = len(names) - len(node.args.defaults)
                found[deco.args[0].value] = (set(names[:cut]), set(names[cut:]))
    return found


def emitted_certificates() -> list[dict]:
    """Every certificate of every default command, plus the three kinds no
    default command emits."""
    emitted = []
    for command in sorted(cli.COMMANDS):
        if command != "replay":
            config = cli.parse_args(["--command", command])
            emitted += cli.COMMANDS[command].body(*cli.resolve(config)).certificates
    emitted.append(blocking_prefix((1, 0, 1), diagonal_set_index(const_index(5)),
                                   ZERO_INDEX, 300)[1])
    emitted += dnr_reduction_audit(EVENS, DIVERGE_INDEX, 30, 100)
    # below n + m - 1 the union lemma fails, so a lowered target has counterexamples
    g = bushy.OrderFunction.from_spec("2")
    emitted += bushy._brute_force_sweep(g, 2, [(2, 2, 2)], [()])["counterexamples"]
    return emitted


@pytest.fixture(scope="module")
def by_kind() -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for cert in emitted_certificates():
        grouped.setdefault(cert["kind"], []).append(cert)
    return grouped


def test_the_audit_reads_every_replayer():
    assert replayer_parameters().keys() == certs.REPLAYERS.keys()


def test_every_kind_is_emitted(by_kind):
    assert by_kind.keys() == certs.REPLAYERS.keys()


def test_certificates_hold_exactly_their_replayers_fields(by_kind):
    wrong = []
    for kind, (required, optional) in sorted(replayer_parameters().items()):
        for cert in by_kind[kind]:
            keys = cert.keys() - {"kind"}
            if not required <= keys <= required | optional:
                wrong.append((kind, sorted(keys - required - optional), sorted(required - keys)))
    assert wrong == []


def test_the_builder_records_each_replayers_parameters():
    recorded = {kind: (set(required), set(optional))
                for kind, (required, optional) in certs._PARAMETERS.items()}
    assert recorded == replayer_parameters()


def _decoded(cert: dict) -> dict:
    return {name: certs.decode_field(cert["kind"], name, value)
            for name, value in cert.items() if name != "kind"}


def test_every_certificate_is_rebuilt_byte_for_byte(by_kind):
    changed = []
    for kind, emitted in sorted(by_kind.items()):
        for cert in emitted:
            rebuilt = certs.certificate(kind, **_decoded(cert))
            if json.dumps(rebuilt, sort_keys=True) != json.dumps(cert, sort_keys=True):
                changed.append(kind)
    assert changed == []


def test_cli_writes_no_certificate_literal():
    tree = ast.parse((ROOT / "src" / "dnrlab" / "cli.py").read_text())
    literals = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Dict)
                and any(isinstance(key, ast.Constant) and key.value == "kind"
                        for key in node.keys)]
    assert literals == []


AUDIT_KINDS = {"diagonal_diverges", "f_unconverged", "ebi_violation", "dnr_value"}


def test_only_the_dnr_audit_writes_certificate_literals():
    # a literal counts when its "kind" is a replayer's: oracle specs do not
    outside, in_audit = [], set()
    for path in sorted((ROOT / "src" / "dnrlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        audit = {id(node) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                 and (path.stem, func.name) == ("reductions", "_audit_certs")
                 for node in ast.walk(func)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Dict):
                continue
            kinds = [value.value for key, value in zip(node.keys, node.values)
                     if isinstance(key, ast.Constant) and key.value == "kind"
                     and isinstance(value, ast.Constant) and value.value in certs.REPLAYERS]
            if kinds and id(node) in audit:
                in_audit.update(kinds)
            elif kinds:
                outside.append(f"{path.name}:{node.lineno} {kinds[0]}")
    assert outside == []
    assert in_audit == AUDIT_KINDS


def test_every_replayer_kind_has_a_writer():
    # a writer is certificate("<kind>", ...) or a dict literal with that "kind"
    written = set()
    for path in sorted((ROOT / "src" / "dnrlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "certificate":
                written.add(node.args[0].value)
            elif isinstance(node, ast.Dict):
                written.update(value.value for key, value in zip(node.keys, node.values)
                               if isinstance(key, ast.Constant) and key.value == "kind"
                               and isinstance(value, ast.Constant))
    assert sorted(set(certs.REPLAYERS) - written) == []


def test_the_builder_refuses_fields_that_are_not_its_replayers(by_kind):
    fields = _decoded(by_kind["cylinder_measure"][0])
    del fields["measure"]
    with pytest.raises(TypeError, match=r"missing fields \['measure'\]"):
        certs.certificate("cylinder_measure", **fields)
    fields = _decoded(by_kind["snr_slice"][0])
    with pytest.raises(TypeError, match=r"unknown fields \['stem'\]"):
        certs.certificate("snr_slice", stem=(), **fields)


def test_none_is_absent_only_for_an_optional_field(by_kind):
    cert = certs.certificate("cylinder_measure", sets=(frozenset({0}),), term_cap=8,
                             measure=DyadicRational(1, 1), tail_exponent=None)
    assert "tail_exponent" not in cert
    fields = {**_decoded(by_kind["bushiness_verdict"][0]), "big": False, "witness": None}
    assert "witness" not in certs.certificate("bushiness_verdict", **fields)
    fields = {**_decoded(by_kind["dnr_value"][0]), "side_code": None}
    assert certs.certificate("dnr_value", **fields)["side_code"] is None
    with pytest.raises(TypeError, match="missing fields"):
        certs.certificate("dnr_value", **{k: v for k, v in fields.items() if k != "side_code"})


def test_every_kind_has_a_row_in_the_kinds_table():
    rows = set(re.findall(r"^\| `(\w+)` \|", FORMATS, re.MULTILINE))
    assert sorted(certs.REPLAYERS.keys() - rows) == []


def test_every_field_rule_is_documented():
    start = FORMATS.index("| rule | value | fields |")
    rules = FORMATS[start:FORMATS.index("\n\n", start)]
    documented = set(re.findall(r"`(\w+)`", rules))
    assert sorted(certs._FIELDS.keys() - documented) == []
