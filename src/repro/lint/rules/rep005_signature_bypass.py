"""REP005: signature-bypass lint.

The state signature is maintained *incrementally*: every
:class:`~repro.uarch.statelib.Field` write adds the changed element's
keyed delta ``(new - old) * key`` to the running signature, which is
what makes ``StateSpace.signature()`` O(1) per cycle.  The invariant
only holds if every mutation of the backing ``values`` list, and of
the shared ``_sig`` signature cell, goes through the
signature-maintaining paths -- ``Field.set`` / ``Field.flip``,
``StateSpace.flip_bit`` / ``apply_fault`` / ``force_bit``, or
``StateSpace.restore``.

A direct write such as ``space.values[i] = x`` (or through a cached
``self._values`` alias) silently desynchronises the signature from the
state it summarises, and a store to the cell itself
(``field._sig[0] += d``) fakes a state change that never happened:
golden/trial comparison then misclassifies trials, which
``verify_golden`` only catches when it happens inside a verified
window.  This rule flags the bypass at the source instead:

* subscript stores -- ``X.values[i] = v``, ``X.values[i] ^= m``,
  ``X.values[:] = snap``, ``del X.values[i]``, ``X._sig[0] = s``,
  ``X._sig[0] += d``;
* rebinding the attribute itself -- ``X.values = [...]`` (the
  signature cell keeps summarising the *old* list), ``X._sig = [s]``;
* in-place mutator calls -- ``X.values.append(...)``, ``.extend``,
  ``.insert``, ``.pop``, ``.remove``, ``.clear``, ``.sort``,
  ``.reverse`` (on ``._sig`` too).

``X.values()`` *calls* (dict views and the like) are reads and are
never flagged.  :mod:`repro.uarch.statelib` itself is exempt -- it is
the one module allowed to touch the list and the cell, because it is
where the signature is maintained.  A deliberate read-only alias is
suppressed inline with ``# repro-lint: allow=REP005 (reason)``.
"""

import ast

from repro.lint.base import Checker, register

# The attribute names backing a StateSpace's element list.
_STATE_ATTRS = frozenset({"values", "_values"})

# list methods that mutate in place (dict/set mutators that share a
# name, e.g. pop/clear, are equally signature-unsafe on these attrs).
_MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "reverse",
})

# The one module allowed to mutate the list directly: the signature is
# maintained there.
_EXEMPT_SUFFIX = "uarch/statelib.py"


def _is_state_list(node):
    """True for an ``<expr>.values`` / ``<expr>._values`` attribute."""
    return isinstance(node, ast.Attribute) and node.attr in _STATE_ATTRS


def _is_sig_cell(node):
    """True for an ``<expr>._sig`` attribute (the shared signature cell)."""
    return isinstance(node, ast.Attribute) and node.attr == "_sig"


@register
class SignatureBypassChecker(Checker):
    """Forbid raw mutation of the element list and the signature cell."""

    rule_id = "REP005"
    description = ("state-element writes must go through the signature-"
                   "maintaining Field/StateSpace paths, never raw "
                   ".values or ._sig mutation")

    def check(self, module, project):
        if module.path.replace("\\", "/").endswith(_EXEMPT_SUFFIX):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                yield from self._check_store(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_mutator(module, node)

    # ------------------------------------------------------------------

    def _check_store(self, module, node):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            targets = node.targets  # ast.Delete
        for target in targets:
            if _is_sig_cell(target) or (isinstance(target, ast.Subscript)
                                        and _is_sig_cell(target.value)):
                yield self.finding(
                    module, target,
                    "store to the ._sig signature cell outside statelib "
                    "moves the state signature without a state change; "
                    "only the Field/StateSpace write paths may update it")
            elif isinstance(target, ast.Subscript) \
                    and _is_state_list(target.value):
                yield self.finding(
                    module, target,
                    "raw element write .%s[...] bypasses the incremental "
                    "state signature; go through Field.set/Field.flip, "
                    "StateSpace.flip_bit or StateSpace.restore"
                    % target.value.attr)
            elif _is_state_list(target):
                yield self.finding(
                    module, target,
                    "rebinding .%s detaches the element list from its "
                    "incremental signature; mutate through the Field "
                    "handles or StateSpace.restore instead"
                    % target.attr)

    def _check_mutator(self, module, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS \
                and (_is_state_list(func.value) or _is_sig_cell(func.value)):
            yield self.finding(
                module, node,
                ".%s.%s(...) mutates signature-tracked state without "
                "updating the incremental state signature; go through "
                "the Field/StateSpace write paths"
                % (func.value.attr, func.attr))
