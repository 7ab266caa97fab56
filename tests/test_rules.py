from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from smellsurv.errors import ConfigError
from smellsurv.rules import (
    CodeEntity,
    RULES,
    SmellRule,
    default_ruleset,
    evaluate_rules,
    load_code_model,
    load_ruleset,
    scope_of,
)
from smellsurv.tracking import assign_keys

from oracles import Violation, keys_oracle, rules_oracle

DEFAULTS = default_ruleset()


def method(name="m", loc=0, params=0, file="src/a.php", parent="A"):
    return CodeEntity(
        kind="method", name=name, file=file, parent=parent,
        loc=loc, parameter_count=params,
    )


def klass(name="C", loc=0, dit=0, cbo=0, noc=0, file="src/c.php"):
    return CodeEntity(
        kind="class", name=name, file=file, loc=loc,
        depth_of_inheritance=dit, coupling=cbo, children_count=noc,
    )


def test_default_thresholds_and_scopes():
    assert [(rule.id, rule.threshold) for rule in default_ruleset()] == [
        ("ExcessiveMethodLength", 100),
        ("ExcessiveClassLength", 1000),
        ("ExcessiveParameterList", 10),
        ("DepthOfInheritance", 10),
        ("CouplingBetweenObjects", 13),
        ("NumberOfChildren", 15),
    ]
    scopes = [scope_of(r) for r in RULES]
    assert scopes[:3] == ["localized"] * 3
    assert scopes[3:] == ["scattered"] * 3


def test_scope_of_examples():
    assert scope_of("ExcessiveParameterList") == "localized"
    assert scope_of("DepthOfInheritance") == "scattered"
    assert scope_of("CouplingBetweenObjects") == "scattered"


def test_long_method_flagged():
    occurrences = evaluate_rules([method(loc=150)], DEFAULTS)
    assert [(rule, entity_path) for rule, _, entity_path in occurrences] == [("ExcessiveMethodLength", "A/m")]


def test_method_exactly_at_threshold_is_clean():
    assert evaluate_rules([method(loc=100)], DEFAULTS) == []


def test_class_at_and_over_thresholds():
    # children over (16 > 15), coupling exactly at 13: only one occurrence
    occurrences = evaluate_rules([klass(noc=16, cbo=13)], DEFAULTS)
    assert [rule for rule, _, _ in occurrences] == ["NumberOfChildren"]


def test_rules_apply_to_matching_kinds_only():
    # a 2000-line method is a long method, never a long class
    occurrences = evaluate_rules([method(loc=2000)], DEFAULTS)
    assert [rule for rule, _, _ in occurrences] == ["ExcessiveMethodLength"]
    function = CodeEntity(kind="function", name="f", file="src/f.php", parameter_count=11)
    occurrences = evaluate_rules([function], DEFAULTS)
    assert [rule for rule, _, _ in occurrences] == ["ExcessiveParameterList"]


def test_output_ordering_is_file_entity_rule():
    entities = [
        method(name="z", loc=150, file="src/b.php"),
        method(name="a", loc=150, params=12, file="src/b.php"),
        klass(name="C", dit=11, file="src/a.php"),
    ]
    occurrences = evaluate_rules(entities, DEFAULTS)
    assert [(file, entity_path, rule) for rule, file, entity_path in occurrences] == [
        ("src/a.php", "C", "DepthOfInheritance"),
        ("src/b.php", "A/a", "ExcessiveMethodLength"),
        ("src/b.php", "A/a", "ExcessiveParameterList"),
        ("src/b.php", "A/z", "ExcessiveMethodLength"),
    ]


def test_infinite_thresholds_flag_nothing():
    rules = [SmellRule(rule, math.inf) for rule in RULES]
    entities = [method(loc=10**9, params=10**9), klass(loc=10**9, dit=10**9, cbo=10**9, noc=10**9)]
    assert evaluate_rules(entities, rules) == []


def test_default_ruleset_scope_balance():
    rules = default_ruleset()
    assert sum(1 for r in rules if scope_of(r.id) == "localized") == 3
    assert sum(1 for r in rules if scope_of(r.id) == "scattered") == 3


def test_nonpositive_threshold_rejected(tmp_path):
    path = tmp_path / "rules.json"
    for value in ("0", "-1", "NaN", "true", '"10"'):
        path.write_text(f'{{"ExcessiveMethodLength": {value}}}')
        with pytest.raises(ConfigError) as info:
            load_ruleset(path)
        assert str(info.value) == f"rules file {path}: threshold for ExcessiveMethodLength must be a positive number"


metric_values = st.integers(min_value=0, max_value=2000)


@given(
    loc=metric_values, params=metric_values, dit=metric_values,
    cbo=metric_values, noc=metric_values, bump=st.integers(min_value=0, max_value=500),
    field=st.sampled_from(["loc", "parameter_count", "depth_of_inheritance", "coupling", "children_count"]),
)
def test_increasing_a_metric_never_removes_occurrences(loc, params, dit, cbo, noc, bump, field):
    base = dict(loc=loc, parameter_count=params, depth_of_inheritance=dit,
                coupling=cbo, children_count=noc)
    bumped = dict(base)
    bumped[field] += bump
    for kind in ("method", "class"):
        before = evaluate_rules([CodeEntity(kind=kind, name="e", file="f.php", **base)], DEFAULTS)
        after = evaluate_rules([CodeEntity(kind=kind, name="e", file="f.php", **bumped)], DEFAULTS)
        assert {rule for rule, _, _ in before} <= {rule for rule, _, _ in after}


def test_load_ruleset_overrides(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"ExcessiveMethodLength": 50}))
    rules = load_ruleset(path)
    thresholds = {r.id: r.threshold for r in rules}
    assert thresholds["ExcessiveMethodLength"] == 50
    assert thresholds["ExcessiveClassLength"] == 1000


def test_infinite_threshold_loads_and_never_fires(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('{"ExcessiveMethodLength": Infinity}')
    rules = load_ruleset(path)
    assert {r.id: r.threshold for r in rules}["ExcessiveMethodLength"] == math.inf
    occurrences = evaluate_rules([method(loc=10**9, params=10**9)], rules)
    assert [rule for rule, _, _ in occurrences] == ["ExcessiveParameterList"]


def test_load_ruleset_unknown_rule(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"CyclomaticComplexity": 10}))
    with pytest.raises(ConfigError, match="unknown rule id"):
        load_ruleset(path)


def test_load_code_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "entities": [
            {"kind": "method", "name": "m1", "file": "a.php", "parent": "A", "loc": 150},
            {"kind": "class", "name": "A", "file": "a.php", "loc": 900},
        ]
    }))
    entities = load_code_model(path)
    assert len(entities) == 2
    occurrences = evaluate_rules(entities, DEFAULTS)
    assert [rule for rule, _, _ in occurrences] == ["ExcessiveMethodLength"]


def test_load_code_model_bare_list_and_errors(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps([{"kind": "function", "name": "f", "file": "b.php", "parameter_count": 3}]))
    assert len(load_code_model(path)) == 1
    path.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ConfigError):
        load_code_model(path)
    path.write_text(json.dumps([{"kind": "method", "file": "b.php"}]))
    with pytest.raises(ConfigError, match="entity #0"):
        load_code_model(path)


ENTITY = {
    "kind": "method",
    "name": "m",
    "file": "a.php",
    "parent": "A",
    "loc": 150,
    "parameter_count": 12,
    "depth_of_inheritance": 0,
    "coupling": 0,
    "children_count": 0,
}
odd_values = st.one_of(
    st.none(), st.lists(st.integers(), max_size=2), st.booleans(), st.floats(), st.text(max_size=4),
    st.integers(max_value=-1),
)


def _loads(mutation: dict) -> bool:
    """Whether an ENTITY with these fields replaced still reads: only a
    string name, file or parent does (no odd value is a kind, and a metric
    must be a JSON integer >= 0)."""
    return all(field in ("name", "file", "parent") and isinstance(value, str) for field, value in mutation.items())


@settings(max_examples=200, deadline=None)
@given(mutations=st.lists(st.dictionaries(st.sampled_from(sorted(ENTITY)), odd_values), min_size=1, max_size=3))
def test_entity_fields_of_any_json_type_load_or_raise_config_error(tmp_path_factory, mutations):
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps([{**ENTITY, **mutation} for mutation in mutations]))
    bad = [i for i, mutation in enumerate(mutations) if not _loads(mutation)]
    if bad:
        with pytest.raises(ConfigError) as info:
            load_code_model(path)
        assert f"{path}: entity #{bad[0]}" in str(info.value)
        return
    # what loads is well typed: it evaluates and sorts without error, and each
    # entity is a method over both the length and the parameter threshold
    entities = load_code_model(path)
    assert len(evaluate_rules(entities, DEFAULTS)) == 2 * len(entities)


# small metrics and thresholds, so that metrics often sit exactly at a threshold
oracle_entities = st.lists(
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["class", "method", "function"]),
            "name": st.sampled_from(["m", "n"]),
            "file": st.sampled_from(["a.php", "b.php"]),
        },
        optional={
            "parent": st.sampled_from(["A", "B"]),
            **{
                field: st.integers(min_value=0, max_value=12)
                for field in ("loc", "parameter_count", "depth_of_inheritance", "coupling", "children_count")
            },
        },
    ),
    max_size=12,
)
oracle_thresholds = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.5, max_value=12.0),
    st.sampled_from([float(n) for n in range(1, 12)]),
    st.just(math.inf),
)


def code_entities(entities: list[dict]) -> list[CodeEntity]:
    return [
        CodeEntity(**entity)
        for entity in entities
    ]


@settings(max_examples=300, deadline=None)
@given(
    entities=oracle_entities,
    rule_ids=st.lists(st.sampled_from(RULES), unique=True),
    thresholds=st.lists(oracle_thresholds, min_size=6, max_size=6),
)
def test_evaluate_rules_matches_the_brute_force_oracle(entities, rule_ids, thresholds):
    rules = [SmellRule(rid, threshold) for rid, threshold in zip(rule_ids, thresholds)]
    occurrences = evaluate_rules(code_entities(entities), rules)
    assert [(file, entity_path, rule) for rule, file, entity_path in occurrences] == rules_oracle(
        entities, {rule.id: rule.threshold for rule in rules}
    )


@settings(max_examples=200, deadline=None)
@given(entities=oracle_entities)
def test_keys_of_rule_output_match_the_key_oracle(entities):
    # two files, two names and two parents: the same entity path often fires twice
    occurrences = evaluate_rules(code_entities(entities), [SmellRule(rule, 1) for rule in RULES])
    assert assign_keys(occurrences) == keys_oracle([Violation(*occ) for occ in occurrences])
