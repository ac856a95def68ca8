"""Reference loop-signature interning: the whole loop stack per intern.

This is the interning that :meth:`repro.runtime.interpreter.VM._intern_sig`
replaced with one that grows each signature from the thread's previous
one.  It builds every signature, pairs included, from the thread's loop
stack.  It exists only so the equivalence tests can compare the two
tables and the traces recorded with them.
"""

from __future__ import annotations

from repro.runtime.interpreter import VM


class ReferenceInternVM(VM):
    """A VM that interns each signature rebuilt from the loop stack."""

    def _intern_sig(self, thread) -> None:
        thread.sig_id = self.sigs.intern(
            tuple((entry[0], entry[1]) for entry in thread.loop_stack)
        )
