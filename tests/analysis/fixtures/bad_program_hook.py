"""Fixture: an LP program hook the static contract checker must reject.

Parsed, never executed.  ``BadHookProgram`` overrides the ``score`` hook
with the wrong positional arity (``contract-hook-signature-mismatch``).
"""

from __future__ import annotations


class BadHookProgram(LPProgram):  # noqa: F821 -- parsed, never executed
    def score(self, vertex_ids, labels):
        return labels

    def update_vertices(self, vertex_ids, best_labels, best_scores, current_labels):
        return current_labels
