"""Executable reflective sequential abstract state machines.

The program of a machine lives as a tree value in the distinguished location
``self`` of its own state, whose signature is the one that tree declares; every
step decodes the rule from it, executes the rule, and applies the collapsed
update set.  Programs can therefore extend their own signature and rewrite
their own rule mid-run.
"""

from .engine import (
    Report,
    Trace,
    check_strong_coincidence,
    probe_bounded_exploration,
    probe_isomorphism_closure,
    replay,
    run,
    step,
)
from .errors import (
    EngineError,
    EvalError,
    IsoError,
    ParseError,
    ReflectError,
    RsasmError,
    RuleError,
    SignatureError,
    StateError,
    TreeError,
)
from .frontend import load_program, parse, parse_file
from .printer import machine_to_source
from .reflect import (
    ReserveAllocator,
    beta,
    build_self_tree,
    decode_rule,
    decode_signature,
    drop,
    encode_rule,
    encode_signature,
    eval_algebra,
    new_function,
    raise_,
    rule_of_self,
    signature_of_self,
    tree_diff,
    tree_update_rule,
)
from .rules import (
    Assign,
    ClashReport,
    If,
    Let,
    Par,
    PartialAssign,
    SharedUpdate,
    UpdateMultiset,
    collapse,
    compute_update_multiset,
    execute,
    normalize_sublocations,
)
from .structures import (
    Atom,
    BoolVal,
    Constant,
    DroppedTerm,
    Equality,
    FALSE,
    FunctionApp,
    FunctionSymbol,
    Iota,
    Location,
    Machine,
    NatVal,
    NodeRef,
    SetVal,
    Signature,
    State,
    SymbolName,
    TreeValue,
    TRUE,
    TupleVal,
    UNDEF,
    Update,
    UpdateSet,
    Variable,
    apply_isomorphism,
    apply_update_set,
    diff_states,
    eval_term,
    is_consistent,
)
from .treealg import Context, Hedge, Tree

__version__ = "0.1.0"
