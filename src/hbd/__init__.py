"""Hierarchical block diagrams compiled into a serial/parallel/feedback
algebra, with an executable constructive-functions model and a determinacy
test harness for the translation strategies."""

from .types import BaseType, Var, types_of
from .terms import (
    Atom,
    Feedback,
    Id,
    Parallel,
    Route,
    Serial,
    Sink,
    Split,
    Switch,
    Term,
    expand_routes,
    feedback_n,
    mk_arb,
    parse_term,
    print_term,
    rewrite_basic,
)
from .semantics import BOT, eval_expr, eval_term, sample_inputs
from .io_diagrams import (
    IoDiagram,
    named_feedback,
    named_serial,
    switch_vars,
)
from .translator import FeedbackParallel, Incremental, RandomChoices, translate
from .feedbackless import SplitBlock, fbless_translate, loop_free, oi_rel, split_block
from .harness import io_equiv
from .frontend import FbLess, flatten_or_recurse, normalize, parse_doc, to_io_diagrams

__all__ = [name for name in dir() if not name.startswith("_")]
