"""Terms and name collectors that several test files build on.

None of these is a paper object the library offers: the identity-like family
feeds `check_identity_like`, the leq round terms are the ones `t_leq` hands
out (the opponent scripts replay them), and the collectors list the constant
names in a node through the library's own name fold.
"""

from lamc.realizers import IDENT, SELF_APP, _LEQ_T1_TEXT, _LEQ_T2_TEXT
from lamc.syntax import (
    App,
    Bottom,
    Const,
    HAS_CONST,
    HAS_STACKNAME,
    _names,
    numeral,
    parse_term,
    subst_var,
)


def identity_like_family(registry):
    """Closed terms t with t * u.pi > u * pi for every closed u and pi."""
    return {
        "ident": IDENT,
        "ident_of_ident": App(IDENT, IDENT),
        "self_app_of_ident": App(SELF_APP, IDENT),
        "ident_via_control": parse_term("\\x. cc (\\k. x)", registry),
        "ident_via_restore": parse_term(
            "cc (\\k. k (\\x. x) (\\y. y y) k)", registry),
    }


def leq_round_opener(registry, u, code):
    """The self-pair the leq realizer evaluates after coding its stack as
    `code`; replaying this exact term against the coded stack is the one move
    the round-two gate rewards."""
    t1 = subst_var(subst_var(
        parse_term(_LEQ_T1_TEXT, registry, free_vars=("u", "m")),
        "u", u), "m", numeral(code))
    return App(t1, t1)


def leq_round_gate(registry, u, code):
    """The handler the leq realizer hands out with its number: yields to any
    reply except the recorded opener on the recorded stack."""
    opener = leq_round_opener(registry, u, code)
    t2 = parse_term(_LEQ_T2_TEXT, registry, free_vars=("y", "m"))
    return subst_var(subst_var(t2, "y", opener.fn), "m", numeral(code))


def collect_constants(node):
    """Names of all term constants occurring anywhere in the node."""
    return _names(node, (Const,), lambda n: n.flags & HAS_CONST)


def collect_stack_constants(node):
    """Names of all stack constants occurring anywhere in the node."""
    return _names(node, (Bottom,), lambda n: n.flags & HAS_STACKNAME)
