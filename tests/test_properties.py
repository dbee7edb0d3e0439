"""Property tests: substitution, atom collection, collapse order-independence, parsing,
printing, and shared subtrees (hash-consing and node tables)."""

import gc
import itertools
import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_state, old_term_json
from test_acceptance import JoinCase, join_source
from rsasm import generate, treealg
from rsasm.background import COMMUTATIVE_OPERATORS
from rsasm.engine import replay, run
from rsasm.errors import ParseError, RsasmError
from rsasm.frontend import (
    KEYWORDS,
    _collect_atoms,
    _collect_atoms_value,
    load_program,
    parse,
    tokenize,
    trees_from_table,
    value_from_json,
)
from rsasm.printer import TracePrinter, machine_to_source
from rsasm.reflect import decode_rule, encode_rule, rule_of_self
from rsasm.rules import (
    Assign,
    ClashReport,
    If,
    Let,
    Par,
    PartialAssign,
    Rule,
    SharedUpdate,
    UpdateMultiset,
    collapse,
    compute_update_multiset,
    rule_free_vars,
    rule_substitute,
)
from rsasm.structures import (
    Atom,
    BoolConnective,
    Constant,
    DroppedTerm,
    Equality,
    FALSE,
    FunctionApp,
    Iota,
    Location,
    NODES_DOMAIN,
    NatVal,
    NodeRef,
    SetVal,
    SymbolName,
    TRUE,
    Term,
    TreeValue,
    TupleVal,
    UNDEF,
    Update,
    UpdateSet,
    Variable,
    apply_isomorphism,
    canonical_dumps,
    eval_term,
    term_children,
    term_free_vars,
    term_substitute,
)
from rsasm.treealg import L_IF, L_LET, L_PAR, L_PARTIAL, L_UPDATE, XI, Tree, subst_tt

VARS = ("x", "y")
ATOMS = (Atom("p"), Atom("q"), Atom("r"))
SYMBOLS = {"n0": 0, "a0": 0, "u0": 1}
STATE = make_state(
    SYMBOLS,
    {
        Location("n0"): NatVal(1),
        Location("a0"): Atom("p"),
        Location("u0", (Atom("q"),)): TRUE,
    },
    domains=(("D", ATOMS),),
    base=ATOMS,
)

# -- strategies -----------------------------------------------------------------------

plain_values = st.sampled_from(
    (NatVal(0), NatVal(1), NatVal(2), *ATOMS, TRUE, FALSE, UNDEF, SymbolName("n0"))
)


def _compound_values(inner):
    leaves = st.lists(inner, max_size=3).map(
        lambda vs: TreeValue(Tree("node", tuple(Tree("leaf", (), v) for v in vs)))
    )
    return st.one_of(
        st.lists(inner, max_size=3).map(lambda vs: TupleVal(tuple(vs))),
        st.frozensets(inner, max_size=3).map(SetVal),
        leaves,
        inner.map(lambda v: DroppedTerm(FunctionApp("u0", (Constant(v),)))),
    )


values = st.recursive(plain_values, _compound_values, max_leaves=6)

term_leaves = st.one_of(
    plain_values.map(Constant),
    st.sampled_from(VARS).map(Variable),
    st.sampled_from(("n0", "a0")).map(FunctionApp),
)


def _compound_terms(inner):
    return st.one_of(
        st.builds(lambda a, b: FunctionApp("+", (a, b)), inner, inner),
        inner.map(lambda a: FunctionApp("u0", (a,))),
        st.builds(Equality, inner, inner),
        st.builds(
            BoolConnective,
            st.sampled_from(("and", "or")),
            st.lists(inner, min_size=1, max_size=3).map(tuple),
        ),
        inner.map(lambda a: BoolConnective("not", (a,))),
        st.builds(lambda v, c: Iota(v, "D", c), st.sampled_from(VARS), inner),
    )


terms = st.recursive(term_leaves, _compound_terms, max_leaves=10)
terms_with_any_constant = st.recursive(
    st.one_of(term_leaves, values.map(Constant)), _compound_terms, max_leaves=10
)


def _compound_rules(inner):
    return st.one_of(
        st.builds(If, terms, inner, inner),
        st.lists(inner, max_size=3).map(lambda rs: Par(tuple(rs))),
        st.builds(Let, st.sampled_from(VARS), terms, inner),
    )


rule_leaves = st.one_of(
    st.builds(lambda t: Assign("n0", (), t), terms),
    st.builds(lambda a, t: Assign("u0", (a,), t), terms, terms),
    st.builds(lambda t: PartialAssign("n0", (), "+", (t,)), terms),
)
rules = st.recursive(rule_leaves, _compound_rules, max_leaves=6)


def _outcome(compute):
    """The value ``compute`` returns, or the error it raises, as a comparable pair."""
    try:
        return "value", compute()
    except RsasmError as exc:  # the lemma covers failing evaluations too
        return type(exc).__name__, str(exc)


# -- substitution lemma ------------------------------------------------------------------


@given(terms, st.sampled_from(VARS), plain_values, st.dictionaries(st.sampled_from(VARS), plain_values))
def test_term_substitution_lemma(term, var, value, env):
    substituted = term_substitute(term, var, Constant(value))
    assert _outcome(lambda: eval_term(STATE, substituted, env)) == _outcome(
        lambda: eval_term(STATE, term, env | {var: value})
    )


@given(terms, st.sampled_from(VARS), plain_values)
def test_substitution_stops_at_an_iota_binding_the_variable(cond, var, value):
    bound_here = Iota(var, "D", cond)
    assert term_substitute(bound_here, var, Constant(value)) == bound_here


@given(rules, st.sampled_from(VARS), plain_values, st.dictionaries(st.sampled_from(VARS), plain_values))
def test_rule_substitution_lemma(rule, var, value, env):
    substituted = rule_substitute(rule, var, Constant(value))
    assert _outcome(lambda: compute_update_multiset(substituted, STATE, env)) == _outcome(
        lambda: compute_update_multiset(rule, STATE, env | {var: value})
    )


@given(rules, st.sampled_from(VARS), plain_values)
def test_substitution_stops_at_a_let_binding_the_variable(body, var, value):
    bound = FunctionApp("+", (Variable(var), Constant(NatVal(1))))
    rule = Let(var, bound, body)
    assert rule_substitute(rule, var, Constant(value)) == Let(
        var, term_substitute(bound, var, Constant(value)), body
    )


# -- cached free variables ------------------------------------------------------------------

generated_rules = st.integers(0, 2**32 - 1).map(
    lambda seed: decode_rule(
        rule_of_self(generate.random_machine(random.Random(seed)).initial_state.self_tree)
    )
)
# every variable the strategies above and ``generate`` bind or leave free
SUBSTITUTED = VARS + ("x1", "x2", "x3")


def _parts(rule):
    """The terms and the subrules directly inside ``rule``."""
    if isinstance(rule, Assign):
        return rule.args + (rule.rhs,), ()
    if isinstance(rule, If):
        return (rule.cond,), (rule.then, rule.orelse)
    if isinstance(rule, Par):
        return (), rule.branches
    if isinstance(rule, Let):
        return (rule.bound,), (rule.body,)
    return rule.args + rule.operands, ()


def _walk_free_vars(x, bound=frozenset()) -> set:
    """The free variables of a term or rule by a walk that keeps nothing."""
    if isinstance(x, Variable):
        return {x.name} - bound
    if isinstance(x, Iota):
        return _walk_free_vars(x.condition, bound | {x.var})
    if not isinstance(x, Rule):
        return set().union(*(_walk_free_vars(c, bound) for c in term_children(x)))
    terms, subrules = _parts(x)
    inner = bound | {x.var} if isinstance(x, Let) else bound
    return set().union(
        *(_walk_free_vars(t, bound) for t in terms), *(_walk_free_vars(r, inner) for r in subrules)
    )


def _direct(x):
    """The terms and rules directly inside a term or rule."""
    return term_children(x) if isinstance(x, Term) else tuple(itertools.chain(*_parts(x)))


def _everything_in(rule):
    """Every subrule of ``rule`` and every subterm of those, ``rule`` first."""
    stack = [rule]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(_direct(x))


def _free_vars(x):
    return rule_free_vars(x) if isinstance(x, Rule) else term_free_vars(x)


def _substitute(x, var, repl):
    return rule_substitute(x, var, repl) if isinstance(x, Rule) else term_substitute(x, var, repl)


_SHADOWING = (
    Let("x", FunctionApp("+", (Variable("x"), Variable("y"))), Assign("n0", (), Variable("x"))),
    Assign("n0", (), Iota("x", "D", Equality(Variable("x"), Variable("y")))),
    Let("x", Constant(NatVal(1)), Assign("u0", (Variable("y"),), Iota("y", "D", Variable("x")))),
)


@given(st.one_of(rules, generated_rules))
@example(_SHADOWING[0])
@example(_SHADOWING[1])
@example(_SHADOWING[2])
def test_cached_free_variables_are_those_of_an_uncached_walk(rule):
    assert rule_free_vars(rule) == _walk_free_vars(rule)  # fills the caches inside too
    for x in _everything_in(rule):
        assert _free_vars(x) == _walk_free_vars(x)


@given(st.one_of(rules, generated_rules), plain_values)
@example(_SHADOWING[0], NatVal(0))
@example(_SHADOWING[1], NatVal(0))
@example(_SHADOWING[2], NatVal(0))
def test_substituting_a_variable_that_is_not_free_returns_the_very_object(rule, value):
    repl = Constant(value)
    for x in _everything_in(rule):
        for var in SUBSTITUTED:
            substituted = _substitute(x, var, repl)
            if var not in _walk_free_vars(x):
                assert substituted is x
                continue
            # a copy shares every direct part in which ``var`` is not free
            for old, new in zip(_direct(x), _direct(substituted)):
                if var not in _walk_free_vars(old):
                    assert new is old


# -- atom collection ------------------------------------------------------------------------


def _with_table(value) -> list:
    """``value`` written against a node table of its own, as ``[table, json]``."""
    doc = TracePrinter()
    written = doc.value(value)
    return [doc.entries, written]


def _json_atoms(obj) -> set:
    if isinstance(obj, dict):
        found = {Atom(obj["atom"])} if set(obj) == {"atom"} else set()
        return found.union(*(_json_atoms(v) for v in obj.values()))
    if isinstance(obj, list):
        return set().union(*(_json_atoms(v) for v in obj))
    return set()


@given(terms_with_any_constant)
def test_collected_atoms_cover_every_atom_of_a_term(term):
    collected: set = set()
    _collect_atoms(term, collected)
    assert _json_atoms(old_term_json(term, {})) <= collected


@given(rules)
def test_collected_atoms_of_a_rule_cover_its_terms(rule):
    collected: set = set()
    _collect_atoms_value(TreeValue(encode_rule(rule)), collected)
    for t in _rule_terms(rule):
        assert _json_atoms(old_term_json(t, {})) <= collected


@given(rules)
def test_the_atoms_of_a_rule_are_the_atoms_of_its_encoding(rule):
    # a machine collects its rule's atoms from the parsed rule, not from self
    from_rule: set = set()
    _collect_atoms(rule, from_rule)
    from_encoding: set = set()
    _collect_atoms_value(TreeValue(encode_rule(rule)), from_encoding)
    assert from_rule == from_encoding


def _rule_terms(rule):
    if isinstance(rule, (Assign, PartialAssign)):
        yield from rule.args
        yield from (rule.rhs,) if isinstance(rule, Assign) else rule.operands
    elif isinstance(rule, If):
        yield rule.cond
        yield from _rule_terms(rule.then)
        yield from _rule_terms(rule.orelse)
    elif isinstance(rule, Let):
        yield rule.bound
        yield from _rule_terms(rule.body)
    else:
        for b in rule.branches:
            yield from _rule_terms(b)


# -- collapse ---------------------------------------------------------------------------------

COUNTER = Location("n0")
ITEMS = Location("a0")
small_sets = st.frozensets(st.sampled_from(ATOMS), max_size=2).map(SetVal)


@st.composite
def commutative_groups(draw):
    """A current value and a group of shared updates under one commutative operator."""
    op = draw(st.sampled_from(sorted(COMMUTATIVE_OPERATORS)))
    operand = st.integers(0, 3).map(NatVal) if op == "+" else small_sets
    current = draw(operand)
    entries = draw(
        st.lists(
            st.lists(operand, min_size=1, max_size=3).map(tuple),
            min_size=1,
            max_size=5,
        )
    )
    return op, current, entries


@given(commutative_groups(), st.randoms(use_true_random=False))
def test_commutative_shared_updates_collapse_independently_of_order(group, rnd):
    op, current, operand_lists = group
    loc = COUNTER if op == "+" else ITEMS
    state = make_state(SYMBOLS, {loc: current})
    entries = [SharedUpdate(loc, op, args) for args in operand_lists]
    operands = [a for args in operand_lists for a in args]
    if op == "+":
        expected = NatVal(current.n + sum(a.n for a in operands))
    else:
        expected = SetVal(current.members.union(*(a.members for a in operands)))
    shuffled = entries[:]
    rnd.shuffle(shuffled)
    for order in (entries, shuffled, entries[::-1]):
        assert collapse(UpdateMultiset(tuple(order)), state) == UpdateSet(
            frozenset({Update(loc, expected)})
        )


# Interior nodes of the rule region of ``_node_state``'s self tree: the wrapper's
# par node, its two rule wrappers and their par nodes (the last two nested).
NODE_PATHS = ((1, 0), (1, 0, 0), (1, 0, 0, 0), (1, 0, 1), (1, 0, 1, 0))
PAYLOADS = (Tree("rule", (Tree("par"),)), Tree("rule", (Tree("if"),)), Tree("par"))


@st.composite
def node_entries(draw):
    path = NodeRef(draw(st.sampled_from(NODE_PATHS)))
    payload = TreeValue(draw(st.sampled_from(PAYLOADS)))
    if draw(st.booleans()):
        return Update(path, payload)
    return SharedUpdate(path, "right_extend", (payload,))


@given(st.lists(node_entries(), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_node_updates_collapse_independently_of_order(entries, rnd):
    state = make_state(rule=Par((Par(()), Par(()))))
    reference = collapse(UpdateMultiset(tuple(entries)), state)
    for _ in range(3):
        rnd.shuffle(entries)
        result = collapse(UpdateMultiset(tuple(entries)), state)
        if isinstance(reference, ClashReport):
            assert isinstance(result, ClashReport)
        else:
            assert result == reference


def test_a_plain_update_agreeing_with_a_multi_operand_fold_collapses_in_every_order():
    state = make_state(SYMBOLS, {COUNTER: NatVal(2)})
    entries = (
        SharedUpdate(COUNTER, "+", (NatVal(1),)),
        SharedUpdate(COUNTER, "+", (NatVal(2), NatVal(3))),
        Update(COUNTER, NatVal(8)),
    )
    results = {collapse(UpdateMultiset(p), state) for p in itertools.permutations(entries)}
    assert results == {UpdateSet(frozenset({Update(COUNTER, NatVal(8))}))}


def _monus_fold(current: int, entries) -> int:
    value = current
    for entry in entries:
        for arg in entry.args:
            value = value + arg.n if entry.op == "+" else max(0, value - arg.n)
    return value


def _mixed_counter_group(size: int):
    """``size`` shared ``+``/``-`` updates of the counter, at least one of each."""
    entry = st.builds(
        SharedUpdate,
        st.just(COUNTER),
        st.sampled_from(("+", "-")),
        st.lists(st.integers(0, 3).map(NatVal), min_size=1, max_size=2).map(tuple),
    )
    plus, minus = (SharedUpdate(COUNTER, op, (NatVal(1),)) for op in "+-")
    rest = st.lists(entry, min_size=size - 2, max_size=size - 2)
    return rest.map(lambda more: [plus, minus, *more]).flatmap(st.permutations)


@given(st.integers(2, 6).flatmap(_mixed_counter_group), st.integers(0, 4))
def test_a_mixed_group_within_the_bound_folds_alike_in_every_order_or_clashes(entries, current):
    state = make_state(SYMBOLS, {COUNTER: NatVal(current)})
    folds = {_monus_fold(current, order) for order in itertools.permutations(entries)}
    for order in (entries, entries[::-1]):
        result = collapse(UpdateMultiset(tuple(order)), state)
        if len(folds) == 1:
            (value,) = folds
            assert result == UpdateSet(frozenset({Update(COUNTER, NatVal(value))}))
        else:
            assert isinstance(result, ClashReport) and result.location == COUNTER
            assert result.reason == "shared updates are order-dependent"


@given(_mixed_counter_group(7), st.integers(0, 4))
def test_a_mixed_group_beyond_the_bound_clashes(entries, current):
    state = make_state(SYMBOLS, {COUNTER: NatVal(current)})
    result = collapse(UpdateMultiset(tuple(entries)), state)
    assert isinstance(result, ClashReport) and result.location == COUNTER
    assert "exceed the checkable bound" in result.reason


# -- parsing ----------------------------------------------------------------------------


def _parses_or_raises_parse_error(source: str) -> None:
    try:
        parse(source)
    except ParseError:
        pass


_PROGRAM_WORDS = sorted(KEYWORDS) + [
    ":=", "<=", "(", ")", "{", "}", "<", ">", "[", "]", ",", "=", "/", "|", ".", "+", "-",
    "x", "f", "D", "0", "1", "2", "true", "undef", "\n", "\n  ", "#",
]


@given(st.text())
@example("SIGNATURE\n  x/0\nRULE\n  x := \u00b2\n")
@example("SIGNATURE\n  x/\u00b2\nRULE\n  PAR ENDPAR\n")
@example('SIGNATURE\n  x/0\nRULE\n  x := {"a":' + "[" * 100_000)
def test_parse_raises_only_parse_errors_on_arbitrary_text(source):
    _parses_or_raises_parse_error(source)


@given(st.lists(st.sampled_from(_PROGRAM_WORDS), max_size=40))
def test_parse_raises_only_parse_errors_on_arbitrary_token_strings(words):
    _parses_or_raises_parse_error(" ".join(words))


def _render(tokens) -> str:
    """Program text with each token on its original line, in its original order."""
    lines: dict[int, list[str]] = {}
    for token in tokens:
        lines.setdefault(token.line, []).append(token.text)
    return "\n".join(" ".join(lines.get(n, ())) for n in range(1, max(lines, default=0) + 1))


_BUNDLED_TOKENS = {
    name: [t for t in tokenize(load_program(name)) if t.kind != "EOF"]
    for name in ("parity", "join")
}
_TOKEN_TEXTS = sorted({t.text for tokens in _BUNDLED_TOKENS.values() for t in tokens})


@st.composite
def mutated_programs(draw):
    """A bundled program with one to three tokens deleted, duplicated or replaced."""
    tokens = list(_BUNDLED_TOKENS[draw(st.sampled_from(sorted(_BUNDLED_TOKENS)))])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(("delete", "duplicate", "replace")))
        if kind == "delete":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            text = draw(st.sampled_from(_TOKEN_TEXTS))
            tokens[i] = type(tokens[i])(tokens[i].kind, text, tokens[i].line, tokens[i].column)
    return _render(tokens)


def test_rendering_the_bundled_tokens_gives_a_parsable_program():
    for tokens in _BUNDLED_TOKENS.values():
        parse(_render(tokens))


@given(mutated_programs())
def test_parse_raises_only_parse_errors_on_mutated_bundled_programs(source):
    _parses_or_raises_parse_error(source)


def test_the_end_of_input_after_a_trailing_comment_is_at_the_end_of_the_line():
    # a comment advances the column like the blanks it could be replaced by
    commented = "SIGNATURE\n  m/0\nRULE\n  PAR # open"
    blank = commented.replace("# open", " " * len("# open"))
    for source in (commented, blank):
        assert tokenize(source)[-1].column == len("  PAR # open") + 1
        with pytest.raises(ParseError, match=r"^PAR without ENDPAR \(line 4, column 13\)$"):
            parse(source)


# -- shared subtrees: hash-consing and node tables ----------------------------------------

# labels that JSON escapes or writes outside ASCII, and the hole label
tree_labels = st.sampled_from(("a", "b", XI, 'q"t', "ü\n"))
tree_leaves = st.builds(Tree, tree_labels, st.just(()), st.one_of(st.none(), values))


def _rebuilt(t: Tree) -> Tree:
    """``t`` built again node by node, which gives ``t`` itself."""
    return Tree(t.label, tuple(_rebuilt(c) for c in t.children), t.value)


def _compound_trees(inner):
    return st.one_of(
        st.builds(lambda a, kids: Tree(a, tuple(kids)), tree_labels, st.lists(inner, max_size=3)),
        # a repeated subtree: once as the same object, once built again
        st.builds(lambda a, kid: Tree(a, (kid, kid, _rebuilt(kid))), tree_labels, inner),
    )


trees = st.recursive(tree_leaves, _compound_trees, max_leaves=8)
machine_self_trees = st.integers(0, 2**32 - 1).map(
    lambda seed: generate.random_machine(random.Random(seed)).initial_state.self_tree
)


def _table_of(t: Tree) -> list:
    """The node table of ``t`` alone, its root last."""
    return _with_table(TreeValue(t))[0]


def _text(t: Tree) -> str:
    """The text of ``t``'s node table: equal texts are equal trees, whatever the objects."""
    return canonical_dumps(_table_of(t))


def _distinct(t: Tree) -> tuple[set, set]:
    """The distinct subtrees of ``t``, by their text, and the distinct node objects."""
    nodes = [node for _, node in t.preorder()]
    return {_text(node) for node in nodes}, set(nodes)


@given(st.one_of(trees, machine_self_trees))
def test_the_node_table_round_trips_and_writes_each_distinct_subtree_once(t):
    table = _table_of(t)
    read = trees_from_table(json.loads(canonical_dumps(table)))
    assert read[-1] is t
    # each distinct tree once, the trees that leaf values hold included
    assert len(set(read)) == len(read) and _distinct(t)[1] <= set(read)


@given(machine_self_trees)
def test_a_built_self_tree_is_one_object_per_distinct_subtree(t):
    subtrees, objects = _distinct(t)
    assert len(objects) == len(subtrees)


@given(st.one_of(trees, machine_self_trees))
def test_a_tree_built_again_is_the_same_object(t):
    assert _rebuilt(t) is t


@given(st.one_of(trees, machine_self_trees))
@example(Tree("r", (Tree(XI), Tree("leaf", (), SetVal(frozenset({NatVal(2), Atom("p")}))))))
@example(Tree("r", (Tree("leaf", (), TreeValue(Tree('q"t', (Tree("ü"),)))),)))
@example(Tree("r", (), NatVal(3)))
def test_a_tree_read_back_from_its_own_table_writes_the_same_text(t):
    text = canonical_dumps(_table_of(t))
    back = trees_from_table(json.loads(text))[-1]
    assert canonical_dumps(_table_of(back)) == text


@given(st.lists(st.one_of(machine_self_trees, trees), min_size=2, max_size=5))
def test_distinct_trees_have_distinct_node_tables(forest):
    for a, b in itertools.combinations(forest, 2):
        assert (_table_of(a) == _table_of(b)) == (a == b)


def _tree_holders(tree: Tree):
    """A tree value inside a leaf value, a set, a tuple and a dropped term's constant."""
    value = TreeValue(tree)
    return st.sampled_from((
        TreeValue(Tree("leaf", (), value)),
        SetVal(frozenset({value, NatVal(0)})),
        TupleVal((Atom("p"), value)),
        DroppedTerm(FunctionApp("u0", (Constant(value),))),
    ))


@given(st.one_of(trees.flatmap(_tree_holders), values))
def test_a_value_holding_trees_reads_back_from_its_json(v):
    table, written = _with_table(v)
    assert value_from_json(written, trees_from_table(table)) == v
    table, written = json.loads(canonical_dumps([table, written]))
    assert value_from_json(written, trees_from_table(table)) == v


# (label, value, child specs): what a tree is asked to be, compared without ``Tree``
tree_specs = st.recursive(
    st.tuples(tree_labels, st.one_of(st.none(), values), st.just(())),
    lambda inner: st.tuples(tree_labels, st.none(), st.lists(inner, max_size=3).map(tuple)),
    max_leaves=8,
)


def _built(spec: tuple) -> Tree:
    """The tree ``spec`` asks for, checked to hold what it was asked to hold."""
    label, value, kids = spec
    tree = Tree(label, tuple(map(_built, kids)), value)
    assert (tree.label, tree.value, len(tree.children)) == (label, value, len(kids))
    return tree


@given(st.lists(tree_specs, min_size=2, max_size=4))
@example([("x", NatVal(1), ()), ("x", TRUE, ())])
@example([("x", NatVal(0), ()), ("x", FALSE, ()), ("x", Atom("0"), ())])
@example([("x", NatVal(0), ()), ("x", NatVal(1), ()), ("x", NatVal(0), ())])
def test_trees_are_one_object_exactly_when_their_node_tables_agree(specs):
    forest = [_built(spec) for spec in specs]
    for (s, a), (t, b) in itertools.combinations(zip(specs, forest), 2):
        assert (a is b) == (a == b) == (s == t) == (_text(a) == _text(b))


def _rebuilding_term(t: Tree) -> Term:
    """A term of ``leaf`` and ``label_hedge`` applications that evaluates to ``t``."""
    label = Constant(Atom(t.label))
    if t.value is not None:
        return FunctionApp("leaf", (label, Constant(t.value)))
    return FunctionApp("label_hedge", (label,) + tuple(map(_rebuilding_term, t.children)))


ROTATION = dict(zip(ATOMS, ATOMS[1:] + ATOMS[:1]))


def _renamed(t: Tree, sigma: dict) -> Tree:
    state = make_state(SYMBOLS, {Location("a0"): TreeValue(t)}, base=ATOMS)
    return apply_isomorphism(state, sigma).interp[Location("a0")].tree


@given(st.lists(trees, min_size=1, max_size=3), st.data())
def test_trees_from_every_source_are_one_object_exactly_when_their_node_tables_agree(forest, data):
    built = []
    for t in forest:
        at = data.draw(st.sampled_from([path for path, _ in t.preorder()]))
        spliced = subst_tt(t, at, data.draw(st.sampled_from(forest)))
        renamed = _renamed(t, ROTATION)
        again = [
            _rebuilt(t),
            trees_from_table(json.loads(_text(t)))[-1],
            subst_tt(spliced, at, t.find(at)),
            _renamed(renamed, {b: a for a, b in ROTATION.items()}),
        ]
        if all(node.value is not UNDEF for _, node in t.preorder()):  # leaf(l, undef) is undef
            again.append(eval_term(STATE, _rebuilding_term(t)).tree)
        assert all(u is t for u in again)
        built += again + [spliced, renamed]
    objects = {node for t in forest + built for _, node in t.preorder()}
    texts = {_text(node) for node in objects}
    assert len(texts) == len(objects)  # an equal text is the same object
    for a, b in itertools.combinations(forest + built, 2):
        assert (a is b) == (a == b) == (_text(a) == _text(b))


def test_the_table_of_live_trees_forgets_trees_that_died():
    gc.collect()
    before = len(treealg._live)
    rng = random.Random(951)
    for _ in range(50):
        run(parse(join_source(JoinCase(rng)))).to_json()
    gc.collect()
    assert len(treealg._live) == before


generated_machines = st.integers(0, 2**32 - 1).map(
    lambda seed: generate.random_machine(random.Random(seed))
)


def _run_outcome(machine):
    trace = run(machine)
    final = trace.final_state
    return trace.status, len(trace.steps), {
        loc: value for loc, value in final.interp.items() if loc.symbol != "self"
    }


@given(generated_machines)
def test_a_printed_machine_parses_back_to_a_machine_that_prints_and_runs_alike(machine):
    # Tree constants reparse as label_hedge terms whose labels join the base
    # set, so the states need not be equal; the text and the run must be.
    printed = machine_to_source(machine)
    reparsed = parse(printed)
    assert machine_to_source(reparsed) == printed
    assert _run_outcome(reparsed) == _run_outcome(machine)


# -- renaming keeps what does not move --------------------------------------------------


def _node_ids(t: Tree) -> set[int]:
    return {id(node) for _, node in t.preorder()}


@given(st.integers(0, 2**32 - 1))
def test_renaming_by_the_identity_returns_the_states_own_tree(seed):
    state = generate.random_machine(random.Random(seed)).initial_state
    renamed = apply_isomorphism(state, {})
    assert renamed.self_tree is state.self_tree
    assert all(renamed.interp[loc] is value for loc, value in state.interp.items())


@given(st.integers(0, 2**32 - 1))
def test_renaming_by_a_permutation_and_back_gives_an_equal_tree(seed):
    rng = random.Random(seed)
    state = generate.random_machine(rng).initial_state
    sigma = generate.random_permutation(state, rng)
    there = apply_isomorphism(state, sigma)
    back = apply_isomorphism(there, {b: a for a, b in sigma.items()})
    assert back.self_tree == state.self_tree
    assert back == state
    # one image per subtree object: shared subtrees stay shared
    assert len(_node_ids(there.self_tree)) == len(_node_ids(state.self_tree))


# -- encoding leaves its rule for decode ------------------------------------------------

RULE_LABELS = {L_UPDATE, L_IF, L_PAR, L_LET, L_PARTIAL}


def _assert_each_rule_node_holds_what_decoding_gives(self_tree: Tree) -> None:
    """The rule encoding left on each rule node equals what decoding gives once it is taken off.

    A copy read back from the node table is the same object, so the memos are
    taken off the nodes for the decode and put back afterwards.
    """
    nodes = list(dict.fromkeys(
        node for _, node in rule_of_self(self_tree).preorder() if node.label in RULE_LABELS
    ))
    left = [vars(node).pop("_decoded_rule") for node in nodes]
    try:
        for node, rule in zip(nodes, left):
            assert rule == decode_rule(node)
    finally:
        for node, rule in zip(nodes, left):
            vars(node)["_decoded_rule"] = rule


@given(machine_self_trees)
def test_encoding_leaves_on_each_rule_node_the_rule_that_decoding_gives(t):
    _assert_each_rule_node_holds_what_decoding_gives(t)


def test_encoding_leaves_on_each_rule_node_of_a_parsed_program_the_rule_that_decoding_gives():
    sources = [load_program(name) for name in ("parity", "join")]
    rng = random.Random(951)
    sources += [join_source(JoinCase(rng)) for _ in range(30)]
    for source in sources:
        _assert_each_rule_node_holds_what_decoding_gives(parse(source).initial_state.self_tree)


# -- dropped terms as a trace's text ------------------------------------------------------


def _read_back(term):
    """``term`` written as a trace's text against a node table of its own, then read back."""
    doc = TracePrinter()
    written = doc.value(DroppedTerm(term))
    table, written = json.loads(canonical_dumps([doc.entries, written]))
    return written["dropped"], value_from_json(written, trees_from_table(table)).term


def _assert_read_back(term):
    text, read = _read_back(term)
    assert read == term, text


@given(terms_with_any_constant)
def test_a_term_written_as_a_traces_text_reads_back_as_the_same_term(term):
    _assert_read_back(term)


A, B = Constant(Atom("a")), Constant(Atom("b"))
TREE_AB = Tree("a", (Tree("b"),))

# Terms that program text writes alike, or not at all, one group per kind of
# ambiguity; a trace's text tells each apart and reads each back.
AMBIGUOUS_TERMS = {
    "bare_name": [Constant(Atom("o")), Variable("o"), FunctionApp("o", ())],
    "mark_name": [
        Constant(Atom("set")),
        Variable("set"),
        FunctionApp("set", (A,)),
        Constant(SetVal(frozenset({Atom("a")}))),
        FunctionApp("var", ()),
        Variable("var"),
    ],
    "tree": [
        Constant(TreeValue(TREE_AB)),
        FunctionApp("label_hedge", (A, FunctionApp("label_hedge", (B,)))),
        Constant(TreeValue(Tree("a", (), NatVal(1)))),
        FunctionApp("leaf", (A, Constant(NatVal(1)))),
    ],
    "set": [
        Constant(SetVal(frozenset({Atom("a")}))),
        FunctionApp("setadd", (FunctionApp("emptyset", ()), A, Constant(TRUE))),
        Constant(SetVal(frozenset())),
        Constant(SetVal(frozenset({DroppedTerm(FunctionApp("f", (A,))), TupleVal((Atom("a"),))}))),
    ],
    "tuple": [
        Constant(TupleVal((TreeValue(Tree("a")), TreeValue(Tree("b"))))),
        FunctionApp("concat", (Constant(TreeValue(Tree("a"))), Constant(TreeValue(Tree("b"))))),
        Constant(TupleVal((Atom("a"),))),
        A,
        Constant(TupleVal(())),
    ],
    "node": [
        Constant(NodeRef((1, 0))),
        Constant(NodeRef(())),
        FunctionApp("subtree", (Constant(NodeRef((1,))),)),
    ],
    "drop": [
        Constant(SymbolName("f")),
        Constant(DroppedTerm(FunctionApp("f", ()))),
        Constant(DroppedTerm(Constant(Atom("f")))),
        Constant(SymbolName("+")),
        Constant(DroppedTerm(Constant(TRUE))),
        Constant(DroppedTerm(FunctionApp("f", (A,)))),
        Constant(DroppedTerm(Constant(DroppedTerm(FunctionApp("f", (A,)))))),
        Constant(DroppedTerm(Constant(SetVal(frozenset({DroppedTerm(Constant(NatVal(1)))}))))),
    ],
    "connective": [
        BoolConnective("and", (A,)),
        BoolConnective("or", ()),
        BoolConnective("and", (A, BoolConnective("and", (B, A)))),
        BoolConnective("and", (A, B, A)),
        A,
        Equality(Iota("x", NODES_DOMAIN, Constant(TRUE)), A),
        BoolConnective("and", (Iota("x", "D", Variable("x")), A)),
    ],
    "atom_name": [
        Constant(Atom(name))
        for name in ("IF", "XI", "true", "undef", "a b", "", "ü", 'q"t', "1a", "f$0", "mod", "Ab")
    ]
    + [Constant(TRUE), Constant(UNDEF), Constant(SymbolName("IF")), Constant(SymbolName("true"))],
}


@pytest.mark.parametrize("kind", sorted(AMBIGUOUS_TERMS))
def test_a_traces_text_tells_apart_what_program_text_writes_alike(kind):
    texts = []
    for term in AMBIGUOUS_TERMS[kind]:
        text, read = _read_back(term)
        assert read == term, text
        texts.append(text)
    assert len(set(texts)) == len(texts), texts


def test_a_traces_text_grows_linearly_with_the_nesting_of_drops():
    def trace_bytes(depth):
        rhs = "DROP(" * depth + "m = 0" + ")" * depth
        source = f"SIGNATURE\n  m/0\n  x/0\nRULE\n  x := {rhs}\nOPTIONS\n  max_steps = 1\n"
        return len(run(parse(source)).to_json())

    small, middle, large = map(trace_bytes, (5, 10, 20))
    assert large - middle == 2 * (middle - small)


def _dropped_terms(trace) -> set:
    """The dropped terms of every self tree of a run."""
    found, seen = set(), set()
    stack = [trace.initial_state.self_tree] + [s.after.self_tree for s in trace.steps]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if isinstance(node.value, DroppedTerm):
                found.add(node.value.term)
            stack.extend(node.children)
    return found


def test_every_dropped_term_of_generated_and_bundled_traces_reads_back_and_replays():
    rng = random.Random(2026)
    traces = [run(generate.random_machine(rng)) for _ in range(200)]
    traces += [run(parse(load_program(name))) for name in ("parity", "join")]
    read = 0
    for trace in traces:
        for term in _dropped_terms(trace):
            _assert_read_back(term)
            read += 1
        points = list(replay(json.loads(trace.to_json())))
        expected = [trace.initial_state] + [s.after for s in trace.steps]
        assert all(p is state.self_tree for p, state in zip(points, expected, strict=True))
    assert read > 500  # 548 with this seed, counting the distinct terms of each trace
