"""Rule-based runtime verification of LTL properties over finite traces.

An LTL formula in negation normal form is compiled into evaluation rules,
reactivation rules and an initial state; a monitor then scans a trace cell
by cell, propagating truth values bottom-up and producing a binary verdict
no later than the final cell.  A brute-force finite-trace evaluator serves
as an independent oracle for differential testing, and a state-to-judgement
mapping checks that every intermediate monitor state denotes the same
truth value as the verdict eventually reached.
"""

from .engine import Monitor, MonitorError, RunResult, StepOutcome, Verdict, explain, run_trace
from .ltl import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    NegAtom,
    Next,
    NnfError,
    Not,
    Or,
    ParseError,
    SubformulaIndex,
    TrueConst,
    Until,
    WeakNext,
    atoms_of,
    format_formula,
    is_nnf,
    parse_formula,
    to_nnf,
)
from .mapcheck import CheckReport, check_run, map_state
from .oracle import (
    Judgement,
    enumerate_formulas,
    eval_judgement,
    oracle_eval,
    random_formula,
)
from .rules import (
    EvaluationRule,
    ReactivationRule,
    RuleName,
    RuleSystem,
    compile_formula,
    dump_rules,
    dump_rules_json,
    rule_count_bound,
)
from .traces import (
    GenParams,
    Trace,
    TraceError,
    format_trace_file,
    format_trace_inline,
    gen_traces,
    parse_trace_inline,
    read_trace_file,
)
from .truth import EvalMode, TruthValue, eval_binary, eval_unary

__all__ = [
    "Always",
    "And",
    "Atom",
    "CheckReport",
    "EvalMode",
    "EvaluationRule",
    "Eventually",
    "Formula",
    "GenParams",
    "Judgement",
    "Monitor",
    "MonitorError",
    "NegAtom",
    "Next",
    "NnfError",
    "Not",
    "Or",
    "ParseError",
    "ReactivationRule",
    "RuleName",
    "RuleSystem",
    "RunResult",
    "StepOutcome",
    "SubformulaIndex",
    "Trace",
    "TraceError",
    "TrueConst",
    "TruthValue",
    "Until",
    "Verdict",
    "WeakNext",
    "atoms_of",
    "check_run",
    "compile_formula",
    "dump_rules",
    "dump_rules_json",
    "enumerate_formulas",
    "eval_binary",
    "eval_judgement",
    "eval_unary",
    "explain",
    "format_formula",
    "format_trace_file",
    "format_trace_inline",
    "gen_traces",
    "is_nnf",
    "map_state",
    "oracle_eval",
    "parse_formula",
    "parse_trace_inline",
    "random_formula",
    "read_trace_file",
    "rule_count_bound",
    "run_trace",
    "to_nnf",
]
