"""Threshold-based smell rules and their evaluation over a code model.

Six metric rules are supported, three with localized scope (confined to a
single method or class) and three with scattered scope (spanning the class
hierarchy or dependency structure). A rule fires when the measured metric is
STRICTLY greater than its threshold, so entities sitting exactly at a
threshold are clean.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigError, read_input

COUNT_DIGITS = 640  # sys.int_info.str_digits_check_threshold: a count this long reads under any digit limit
_COUNT_BOUND = 10**COUNT_DIGITS


# each rule's scope, the CodeEntity metric field it measures, the entity kinds
# it applies to, and its default threshold; rule order is the order of this
# table. A rule, a scope and an entity kind are each the name the outputs
# write, and this table is the one place that names a scope or a kind.
_RULES: dict[str, tuple[str, str, tuple[str, ...], int]] = {
    "ExcessiveMethodLength": ("localized", "loc", ("method", "function"), 100),
    "ExcessiveClassLength": ("localized", "loc", ("class",), 1000),
    "ExcessiveParameterList": ("localized", "parameter_count", ("method", "function"), 10),
    "DepthOfInheritance": ("scattered", "depth_of_inheritance", ("class",), 10),
    "CouplingBetweenObjects": ("scattered", "coupling", ("class",), 13),
    "NumberOfChildren": ("scattered", "children_count", ("class",), 15),
}
RULES = tuple(_RULES)  # position -> rule
_RULE_ORDER = {rule: i for i, rule in enumerate(RULES)}  # rule -> position


def scope_of(rule: str) -> str:
    """Scope of a rule: first three are localized, last three scattered."""
    return _RULES[rule][0]


class SmellRule(NamedTuple):
    id: str
    threshold: float  # > 0: load_ruleset refuses any other

    def applies_to(self, kind: str) -> bool:
        return kind in _RULES[self.id][2]


def default_ruleset() -> list[SmellRule]:
    return [SmellRule(rule, default) for rule, (_, _, _, default) in _RULES.items()]


def normalize_path(path: str, strip_prefix: str | None = None) -> str:
    """Unify separators to '/' and drop a configured leading prefix."""
    unified = path.replace("\\", "/")
    if strip_prefix:
        prefix = strip_prefix.replace("\\", "/")
        if not prefix.endswith("/"):
            prefix += "/"
        if unified.startswith(prefix):
            unified = unified[len(prefix):]
        elif unified == prefix[:-1]:
            unified = ""
    return unified


def _json(data: bytes, what: str, path: str, parse_int=None):
    """The JSON document in data; a failure is a ConfigError naming what and path."""
    import json  # a run on PMD reports alone never reads JSON
    try:
        return json.loads(data.decode("utf-8"), parse_int=parse_int)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path}: not UTF-8: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # not JSON, nested too deep
        raise ConfigError(f"{what} {path}: {exc}") from exc
    except ValueError:  # int()'s, past its digit limit: read again, so the document reads alike under any limit
        return _json(data, what, path, _bounded_int)


def _bounded_int(text: str) -> int:
    # JSON has no leading zero, so more than COUNT_DIGITS digits is past every bound: read as 10**COUNT_DIGITS, signed
    digits = text.lstrip("-")
    return int(text) if len(digits) <= COUNT_DIGITS else (_COUNT_BOUND if digits == text else -_COUNT_BOUND)


def _shown(value) -> str:
    """A JSON value as an error names it, never writing out an integer past the bound."""
    if type(value) in (list, dict):  # by its type: it may hold one
        return "a JSON array" if type(value) is list else "a JSON object"
    return f"more than {COUNT_DIGITS} digits" if type(value) is int and abs(value) >= _COUNT_BOUND else repr(value)


def load_ruleset(path: str) -> list[SmellRule]:
    """Read threshold overrides from a JSON file: {"<rule>": threshold, ...}.

    Rules not named keep their defaults. Unknown rule names are a
    configuration error.
    """
    raw = _json(read_input(path, "rules file", ConfigError), "rules file", path)
    if not isinstance(raw, dict):
        raise ConfigError(f"rules file {path}: expected a JSON object of rule -> threshold")
    thresholds = {rule: default for rule, (_, _, _, default) in _RULES.items()}
    for name, value in raw.items():
        if name not in thresholds:
            raise ConfigError(f"rules file {path}: unknown rule id {name!r}")
        if type(value) not in (int, float) or not value > 0 or type(value) is int and value >= _COUNT_BOUND:
            raise ConfigError(
                f"rules file {path}: threshold for {name} must be a positive number, an integer < 10**{COUNT_DIGITS}"
            )
        thresholds[name] = value
    return [SmellRule(rule, thr) for rule, thr in thresholds.items()]


class CodeEntity(NamedTuple):
    """One class, method, or free function with its measured metrics.

    Metrics that were not measured default to 0.
    """

    kind: str
    name: str
    file: str
    parent: str | None = None
    loc: int = 0
    parameter_count: int = 0
    depth_of_inheritance: int = 0
    coupling: int = 0
    children_count: int = 0


# one rule violation in one version: (rule, file, entity_path)
Occurrence = tuple[str, str, str]


_KINDS = {kind: kind for _, _, kinds, _ in _RULES.values() for kind in kinds}  # a decoded kind -> its one shared copy
_METRICS = CodeEntity._fields[CodeEntity._fields.index("loc"):]  # the measured fields, each a count defaulting to 0


def _rule_plan(rules: list[SmellRule]) -> dict[str, list[tuple[int, float, int]]]:
    """Per entity kind, the (metric's CodeEntity field index, threshold, rule
    position) of each rule that applies."""
    plan = {kind: [] for kind in _KINDS}
    for rule in rules:
        _, metric, kinds, _ = _RULES[rule.id]
        field = CodeEntity._fields.index(metric)
        for kind in kinds:
            plan[kind].append((field, rule.threshold, _RULE_ORDER[rule.id]))
    return plan


def evaluate_rules(
    entities: list[CodeEntity],
    rules: list[SmellRule],
) -> list[Occurrence]:
    """Flag every (entity, rule) pair whose metric strictly exceeds the threshold.

    Output is ordered by (file, entity_path, rule).
    """
    plan = _rule_plan(rules)
    fired = []
    for entity in entities:
        entity_path = None
        for field, threshold, order in plan[entity.kind]:
            if entity[field] > threshold:
                if entity_path is None:
                    entity_path = f"{entity.parent}/{entity.name}" if entity.parent else entity.name
                fired.append((entity.file, entity_path, order))
    fired.sort()
    return [(RULES[order], file, entity_path) for file, entity_path, order in fired]


def load_code_model(path: str, data: bytes, strip_prefix: str | None = None) -> list[CodeEntity]:
    """Decode the code model read from path as data: a list of entity objects, or {"entities": [...]}.

    Each entity object needs "kind" and the strings "name" and "file"; the
    string "parent" and the metric fields, JSON integers >= 0 and below
    10**COUNT_DIGITS, are optional. File names are normalized as read.
    """
    # after a strict decode only a \u escape makes a lone surrogate, and only an escape a "\"; memchr finds it
    escaped = b"\\" in data
    renames = escaped or strip_prefix  # else no file name can change
    raw = _json(data, "code model", path)
    if isinstance(raw, dict):
        raw = raw.get("entities")
    if not isinstance(raw, list):
        raise ConfigError(f"code model {path}: expected a list of entities or an 'entities' key")
    entities = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"code model {path}: entity #{i} is not an object")
        get = item.get
        raw_kind = get("kind")
        kind = _KINDS.get(raw_kind) if type(raw_kind) is str else None
        if kind is None:
            raise ConfigError(f"code model {path}: entity #{i}: unknown kind {_shown(raw_kind)}")
        name, file, parent = get("name"), get("file"), get("parent", "")
        if type(name) is not str or type(file) is not str or type(parent) is not str:
            raise ConfigError(f"code model {path}: entity #{i}: name, file and parent must be strings")
        if escaped:
            for field, text in (("name", name), ("file", file), ("parent", parent)):
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise ConfigError(f"code model {path}: entity #{i}: {field} holds a lone surrogate") from exc
        metrics = (
            get("loc", 0), get("parameter_count", 0), get("depth_of_inheritance", 0),
            get("coupling", 0), get("children_count", 0),
        )
        for value in metrics:
            # `type(...) is int` also refuses a bool, which is an int subclass
            if type(value) is not int or not 0 <= value < _COUNT_BOUND:
                field = next(f for f, v in zip(_METRICS, metrics) if v is value)
                raise ConfigError(
                    f"code model {path}: entity #{i}: {field} must be a JSON integer >= 0 and"
                    f" < 10**{COUNT_DIGITS}, got {_shown(value)}"
                )
        if renames:
            file = normalize_path(file, strip_prefix)
        # CodeEntity(...) without the NamedTuple's Python-level __new__
        entities.append(tuple.__new__(CodeEntity, (kind, name, file, parent or None, *metrics)))
    return entities


def detect_smells(path: str, data: bytes, rules: list[SmellRule], strip_prefix: str | None = None) -> list[Occurrence]:
    """The occurrences of rules in the code model read from path as data, the
    one way from a code model's bytes to occurrences."""
    return evaluate_rules(load_code_model(path, data, strip_prefix), rules)
