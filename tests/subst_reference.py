"""Reference implementations of substitution, the name collector and the
substitution replay, and the checks on an extracted play tree, kept for
differential tests.

Each function rebuilds or walks the tree with its own recursive helper, one
per job, and the replay rewrites every line once per constant and once per
bottom, in the order of the replacements. `lamc.syntax` does the same work
with one iterative rewrite and one name fold, and `lamc.scheme` composes the
replacements first and rewrites each line once; the tests require the two to
agree.
"""

from lamc.syntax import (
    App,
    Bottom,
    Bound,
    Cont,
    Const,
    FreeVar,
    Lam,
    LamcError,
    Process,
    Push,
    is_closed,
)


def subst_bound0(body, u):
    if u.free_width != 0:
        raise LamcError("substituting an open term for a bound variable")

    def go(t, depth):
        if isinstance(t, Cont):
            s = go_stack(t.stack, depth)
            return t if s is t.stack else Cont(s)
        if t.free_width <= depth:
            return t
        if isinstance(t, Bound):
            if t.index == depth:
                return u
            if t.index > depth:
                return Bound(t.index - 1)
            return t
        if isinstance(t, Lam):
            b = go(t.body, depth + 1)
            return t if b is t.body else Lam(b, t.hint)
        if isinstance(t, App):
            f, a = go(t.fn, depth), go(t.arg, depth)
            return t if (f is t.fn and a is t.arg) else App(f, a)
        return t

    def go_stack(s, depth):
        if s.free_width <= depth:
            return s
        if isinstance(s, Push):
            top, rest = go(s.top, depth), go_stack(s.rest, depth)
            return s if (top is s.top and rest is s.rest) else Push(top, rest)
        return s

    return go(body, 0)


def _rebuild(node, go):
    """Rebuild one node from go() of its children, sharing it when they come
    back unchanged."""
    if isinstance(node, Lam):
        b = go(node.body)
        return node if b is node.body else Lam(b, node.hint)
    if isinstance(node, App):
        f, a = go(node.fn), go(node.arg)
        return node if (f is node.fn and a is node.arg) else App(f, a)
    if isinstance(node, Cont):
        s = go(node.stack)
        return node if s is node.stack else Cont(s)
    if isinstance(node, Push):
        top, rest = go(node.top), go(node.rest)
        return node if (top is node.top and rest is node.rest) else Push(top, rest)
    if isinstance(node, Process):
        tm, st = go(node.term), go(node.stack)
        return node if (tm is node.term and st is node.stack) else Process(tm, st)
    return node


def subst_var(t, x, u):
    if u.free_width != 0:
        raise LamcError("substituting a term with unbound indices for a variable")

    def go(node):
        if not node.has_free:
            return node
        if isinstance(node, FreeVar):
            return u if node.name == x else node
        return _rebuild(node, go)

    return go(t)


def subst_const(t, c, u):
    if not is_closed(u):
        raise LamcError("substituting an open term for a constant")

    def go(node):
        if not node.has_const:
            return node
        if isinstance(node, Const):
            return u if node.name == c else node
        return _rebuild(node, go)

    return go(t)


def subst_stack_const(t, alpha, pi):
    if not is_closed(pi):
        raise LamcError("substituting an open stack for a stack constant")

    def go(node):
        if not node.has_stackname:
            return node
        if isinstance(node, Bottom):
            return pi if node.name == alpha else node
        return _rebuild(node, go)

    return go(t)


def bind(name, body, hint=None):
    def go(t, depth):
        if isinstance(t, FreeVar):
            return Bound(depth) if t.name == name else t
        if not t.has_free:
            return t
        if isinstance(t, Lam):
            b = go(t.body, depth + 1)
            return t if b is t.body else Lam(b, t.hint)
        if isinstance(t, App):
            f, a = go(t.fn, depth), go(t.arg, depth)
            return t if (f is t.fn and a is t.arg) else App(f, a)
        if isinstance(t, Cont):
            s = go_stack(t.stack, depth)
            return t if s is t.stack else Cont(s)
        return t

    def go_stack(s, depth):
        if not s.has_free:
            return s
        if isinstance(s, Push):
            top, rest = go(s.top, depth), go_stack(s.rest, depth)
            return s if (top is s.top and rest is s.rest) else Push(top, rest)
        return s

    return Lam(go(body, 0), hint if hint is not None else name)


def names_in_tree(node, kinds=(Const, FreeVar, Bottom)):
    """Names of the leaves of the given kinds, unpruned; by default every
    constant, free variable and stack constant name."""
    out = set()
    todo = [node]
    while todo:
        n = todo.pop()
        if isinstance(n, kinds):
            out.add(n.name)
        elif isinstance(n, Lam):
            todo.append(n.body)
        elif isinstance(n, App):
            todo.extend((n.fn, n.arg))
        elif isinstance(n, Cont):
            todo.append(n.stack)
        elif isinstance(n, Push):
            todo.extend((n.top, n.rest))
        elif isinstance(n, Process):
            todo.extend((n.term, n.stack))
    return out


def replay_with_substitution(scheme, replacements):
    """Rewrite every line by constant j, then by its bottom, for each
    replacement in turn."""
    for j, (u, _) in replacements.items():
        if not is_closed(u):
            raise LamcError(f"replacement term for constant {j} must be closed")
    predicted = []
    for line in scheme.lines:
        start, end = line.start, line.end
        for j, (u, pi) in replacements.items():
            kname, aname = line_start_names(scheme, j)
            start = subst_stack_const(subst_const(start, kname, u), aname, pi)
            end = subst_stack_const(subst_const(end, kname, u), aname, pi)
        predicted.append((start, end))
    return predicted


### the extracted play tree

def line_start_names(scheme, j):
    """The constant and bottom names minted for interaction j, parsed from
    where line j starts: on the pair itself for the root line, after the
    answer for every later one."""
    if not 0 <= j < len(scheme.lines):
        raise LamcError(f"no interaction {j} in the scheme")
    stack = scheme.lines[j].start.stack
    if j > 0:
        stack = stack.rest
    if not (isinstance(stack, Push) and isinstance(stack.top, Const)
            and isinstance(stack.rest, Bottom)):
        raise LamcError(f"line {j} does not start on a minted pair")
    return stack.top.name, stack.rest.name


def check_play_tree(nodes):
    """Each node's parent precedes it, and each path is the parent's path
    plus the parent's next unused child slot."""
    assert nodes[0].path == () and nodes[0].parent is None
    used = [0] * len(nodes)
    for i, node in enumerate(nodes[1:], start=1):
        assert node.idx == i
        assert 0 <= node.parent < i, f"node {i} precedes its parent"
        assert node.path == nodes[node.parent].path + (used[node.parent],), \
            f"node {i} at {node.path} skips or repeats a child slot"
        used[node.parent] += 1
