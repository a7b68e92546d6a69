"""Sliding windows and per-window graph construction.

TaoBao's pipeline maintains "sliding windows containing the transactions in
the past 10-100 days" and builds a graph per window connecting the entities
in the transactions (Section 5.4, Table 4).  This module slices the
transaction stream into windows and compacts each window's touched entities
into a bipartite user-product CSR graph:

* window vertex ids ``[0, num_window_users)`` are the touched users (in
  ascending global-id order), followed by the touched products;
* edge weights are per-pair transaction counts, aggregated over packed
  (user, product) keys;
* the graph is undirected — LP propagates both ways through products.

Batch windows (:func:`build_window_graph`) and incremental windows
(:class:`~repro.pipeline.incremental.IncrementalWindowBuilder`) both end in
:func:`window_from_pairs`, which lays the CSR out straight from the sorted
unique pair list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.graph.csr import CSRGraph
from repro.pipeline.transactions import TransactionStream
from repro.types import VERTEX_DTYPE

#: Bit layout of the packed (user, product) pair keys.
PRODUCT_BITS = 32
PRODUCT_MASK = (1 << PRODUCT_BITS) - 1

#: Largest user-id space the packed int64 keys can carry: the user id
#: occupies the high bits, so ``user << PRODUCT_BITS`` must stay below
#: 2**63.  Streams beyond this must widen the key, not wrap silently.
MAX_PACKED_USERS = 1 << (63 - PRODUCT_BITS)


def pack_pairs(users: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Pack (user, product) id pairs into sortable int64 keys."""
    users = np.asarray(users, dtype=np.int64)
    products = np.asarray(products, dtype=np.int64)
    if users.size and int(users.max()) >= MAX_PACKED_USERS:
        raise PipelineError(
            f"user ids >= {MAX_PACKED_USERS} overflow the packed int64 "
            "pair keys"
        )
    if products.size and int(products.max()) > PRODUCT_MASK:
        raise PipelineError("product ids overflow the packed pair keys")
    return (users << PRODUCT_BITS) | products


def unpack_pairs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unpack int64 pair keys back into (users, products)."""
    keys = np.asarray(keys, dtype=np.int64)
    return keys >> PRODUCT_BITS, keys & PRODUCT_MASK


@dataclass(frozen=True)
class WindowGraph:
    """A window's compacted graph plus the id mappings back to the stream.

    Attributes
    ----------
    graph:
        Undirected bipartite CSR graph over the window's touched entities.
    users:
        Global user ids of window vertices ``[0, len(users))``.
    products:
        Global product ids of window vertices ``[len(users), ...)``.
    start_day, num_days:
        The window bounds (inclusive start, exclusive end).
    """

    graph: CSRGraph
    users: np.ndarray
    products: np.ndarray
    start_day: int
    num_days: int

    @property
    def num_users(self) -> int:
        return int(self.users.size)

    def window_vertex_of_user(self, user_ids: np.ndarray) -> np.ndarray:
        """Map global user ids to window vertex ids (-1 when absent)."""
        user_ids = np.asarray(user_ids, dtype=np.int64)
        # Guard before indexing: ``&`` does not short-circuit, so folding
        # the emptiness test into the ``found`` mask would still evaluate
        # ``self.users[positions]`` and raise on a zero-user window.
        if self.users.size == 0:
            return np.full(user_ids.shape, -1, dtype=np.int64)
        positions = np.searchsorted(self.users, user_ids)
        positions = np.clip(positions, 0, self.users.size - 1)
        found = self.users[positions] == user_ids
        return np.where(found, positions, -1).astype(np.int64)

    def user_of_window_vertex(self, vertices: np.ndarray) -> np.ndarray:
        """Map window vertex ids back to global user ids (-1 for products)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        result = np.full(vertices.size, -1, dtype=np.int64)
        is_user = vertices < self.num_users
        result[is_user] = self.users[vertices[is_user]]
        return result


def window_from_pairs(
    pair_keys: np.ndarray,
    pair_counts: np.ndarray,
    product_counts: np.ndarray,
    *,
    start_day: int,
    num_days: int,
    name: str,
) -> WindowGraph:
    """Lay out a window's undirected CSR from its sorted unique pair list.

    ``pair_keys`` are packed (user, product) keys, sorted ascending and
    unique; ``pair_counts`` are their float64 interaction counts;
    ``product_counts[p]`` is the number of those pairs naming product
    ``p``, for every product id of the stream (the product degrees).  The
    result is bitwise the ``from_edge_arrays(..., symmetrize=True)`` build
    of the same pairs, without its sort:

    * the keys are sorted by (user, product) and compaction keeps order,
      so the user rows are the pair list itself, and they start where the
      user's run of pairs starts;
    * the product rows are one stable sort of the product index, which
      keeps each product's users ascending.

    Every pair sits in its user's row and its product's row with the same
    weight, so the graph is its own transpose by construction.
    """
    # The outputs are allocated first and filled in place, so the build
    # makes no concatenation temporaries.
    num_pairs = pair_keys.size
    indices = np.empty(2 * num_pairs, dtype=VERTEX_DTYPE)
    weights = np.empty(2 * num_pairs, dtype=np.float64)
    users, products = unpack_pairs(pair_keys)
    # Users compact in one run-length pass over the sorted keys, products
    # through the nonzero counts of the product universe; both keep id
    # order.
    new_user = np.ones(users.size, dtype=bool)
    np.not_equal(users[1:], users[:-1], out=new_user[1:])
    user_starts = np.flatnonzero(new_user)
    window_users = users[user_starts]
    present = product_counts > 0
    window_products = np.flatnonzero(present)
    product_index = (np.cumsum(present) - 1)[products]
    num_users = window_users.size
    num_window_products = window_products.size

    # numpy radix-sorts keys of 16 bits or fewer, so the narrowest dtype
    # that holds the product index makes this stable sort linear.
    order = np.argsort(
        product_index.astype(np.min_scalar_type(num_window_products)),
        kind="stable",
    )
    offsets = np.empty(num_users + num_window_products + 1, dtype=VERTEX_DTYPE)
    offsets[:num_users] = user_starts
    offsets[num_users] = 0
    np.cumsum(product_counts[window_products], out=offsets[num_users + 1:])
    offsets[num_users:] += num_pairs
    user_index = np.repeat(
        np.arange(num_users, dtype=VERTEX_DTYPE),
        np.diff(offsets[: num_users + 1]),
    )
    np.add(product_index, num_users, out=indices[:num_pairs])
    # ``order`` is a permutation, so no index needs ``take``'s range check
    # (which buffers ``out``): ``clip`` is the unbuffered mode.
    np.take(user_index, order, out=indices[num_pairs:], mode="clip")
    weights[:num_pairs] = pair_counts
    np.take(pair_counts, order, out=weights[num_pairs:], mode="clip")
    graph = CSRGraph(
        offsets=offsets, indices=indices, weights=weights, name=name
    )
    object.__setattr__(graph, "_self_transpose", True)
    return WindowGraph(
        graph=graph,
        users=window_users,
        products=window_products,
        start_day=start_day,
        num_days=num_days,
    )


def build_window_graph(
    stream: TransactionStream,
    start_day: int,
    num_days: int,
    *,
    name: Optional[str] = None,
) -> WindowGraph:
    """Build the interaction graph of one sliding window."""
    transactions = stream.window_transactions(start_day, num_days)
    pair_keys, pair_counts = np.unique(
        pack_pairs(transactions["user"], transactions["product"]),
        return_counts=True,
    )
    # Counts are integers, exact in float64: the weights equal a per-pair
    # sum of unit transaction weights bit for bit.
    return window_from_pairs(
        pair_keys,
        pair_counts.astype(np.float64),
        np.bincount(
            pair_keys & PRODUCT_MASK, minlength=stream.config.num_products
        ),
        start_day=start_day,
        num_days=num_days,
        name=name if name is not None else f"window-{num_days}d@{start_day}",
    )


class SlidingWindow:
    """Iterate the stream's windows of a fixed length.

    ``step_days`` controls the slide (defaults to the window length, i.e.
    tumbling windows — the Table 4 evaluation uses one window per length).
    """

    def __init__(
        self,
        stream: TransactionStream,
        window_days: int,
        *,
        step_days: Optional[int] = None,
    ) -> None:
        if window_days <= 0:
            raise PipelineError("window_days must be positive")
        if window_days > stream.config.num_days:
            raise PipelineError(
                f"window of {window_days} days exceeds the stream length "
                f"({stream.config.num_days} days)"
            )
        self.stream = stream
        self.window_days = window_days
        self.step_days = step_days if step_days is not None else window_days
        if self.step_days <= 0:
            raise PipelineError("step_days must be positive")

    def __iter__(self) -> Iterator[WindowGraph]:
        start = 0
        while start + self.window_days <= self.stream.config.num_days:
            yield build_window_graph(self.stream, start, self.window_days)
            start += self.step_days

    def latest(self) -> WindowGraph:
        """The most recent complete window.

        The stream-length guard of ``__init__`` can be invalidated after
        construction (``window_days``/``step_days`` reconfigured, or the
        underlying stream swapped for a shorter one), which used to yield
        a window with a negative ``start_day`` that silently selected the
        wrong transactions.  Re-check explicitly at call time.
        """
        start = self.stream.config.num_days - self.window_days
        if start < 0:
            raise PipelineError(
                f"window of {self.window_days} days exceeds the stream "
                f"length ({self.stream.config.num_days} days); no "
                "complete window exists"
            )
        return build_window_graph(self.stream, start, self.window_days)
