"""Synthetic e-commerce transaction stream with planted fraud rings.

The paper's pipeline consumes "sliding windows of recent purchases/clicks"
from TaoBao.  That stream is proprietary, so this module generates the
closest synthetic equivalent:

* **normal traffic** — users drawn near-uniformly, products by a Zipf
  popularity law (the defining skew of e-commerce interaction graphs);
* **fraud rings** — small groups of colluding accounts that repeatedly
  interact with a small pool of ring-controlled products (the
  dense-small-cluster signature seeded LP is deployed to find);
* a fraction of ring members is *black-listed* up front, forming the seed
  store the detection stage starts from.

Transactions carry ``(day, user, product, amount)`` so the window stage can
slice by day and weight edges by interaction counts.

Zipf products are drawn by inverse-CDF lookup:
``cdf.searchsorted(rng.random(k), side="right")`` on one CDF built per
stream.  This is exactly what ``Generator.choice(n, size=k, p=p)`` does with
replacement -- the same checks on ``p``, the same cumsum-and-renormalise CDF,
one ``random`` draw per sample and a right-sided search -- so it yields the
same indices and consumes the same draws, but without rebuilding the
``num_products``-entry CDF on each of the ``num_days * (1 + num_rings)``
calls.  The whole stream is written into one preallocated record buffer.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import PipelineError
from repro.graph.generators.bipartite import zipf_popularity

#: Structured dtype of one transaction record.
TRANSACTION_DTYPE = np.dtype(
    [
        ("day", np.int32),
        ("user", np.int64),
        ("product", np.int64),
        ("amount", np.float64),
    ]
)


def popularity_cdf(popularity: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(p=popularity)`` samples from.

    Runs ``choice``'s checks on ``p``: finite, non-negative and summing to
    1 within ``sqrt(eps)``.
    """
    if not (
        np.all(np.isfinite(popularity))
        and np.all(popularity >= 0.0)
        and abs(popularity.sum() - 1.0)
        <= np.sqrt(np.finfo(np.float64).eps)
    ):
        raise PipelineError("popularity is not a probability distribution")
    cdf = popularity.cumsum()
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True)
class TransactionStreamConfig:
    """Parameters of the synthetic stream.

    The defaults generate a stream whose 10..100-day windows reproduce the
    Table 4 growth curve at ~1/10000 of TaoBao's scale.
    """

    num_users: int = 60_000
    num_products: int = 45_000
    num_days: int = 100
    transactions_per_day: int = 17_000
    zipf_exponent: float = 1.05
    #: Fraction of each day's normal users drawn from a "regulars" pool
    #: (drives the sublinear vertex growth of Table 4).
    regular_fraction: float = 0.7
    regulars_pool_fraction: float = 0.15
    num_rings: int = 40
    ring_size: int = 12
    ring_products: int = 4
    ring_transactions_per_day: int = 30
    #: Fraction of ring members known (black-listed) in advance.
    seed_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users <= 0 or self.num_products <= 0:
            raise PipelineError("user/product universes must be non-empty")
        if self.num_days <= 0 or self.transactions_per_day < 0:
            raise PipelineError("stream length must be positive")
        if self.num_rings < 0 or self.ring_transactions_per_day < 0:
            raise PipelineError("ring counts must be non-negative")
        if self.num_rings > 0 and self.ring_size < 1:
            raise PipelineError("fraud rings must have members")
        honest_users = self.num_users - self.num_rings * self.ring_size
        # Normal traffic needs at least one honest id to draw users from.
        if honest_users < 0 or (
            honest_users == 0 and self.transactions_per_day > 0
        ):
            raise PipelineError("fraud rings exceed the user universe")
        if not 1 <= self.ring_products <= self.num_products:
            raise PipelineError("ring_products must be in [1, num_products]")
        if not math.isfinite(self.zipf_exponent):
            raise PipelineError("zipf_exponent must be finite")
        if not 0.0 <= self.regular_fraction <= 1.0:
            raise PipelineError("regular_fraction must be in [0, 1]")
        # A pool larger than the honest id range would draw "honest"
        # regulars from ring-member ids.
        if not 0.0 < self.regulars_pool_fraction <= 1.0:
            raise PipelineError("regulars_pool_fraction must be in (0, 1]")
        if not 0.0 < self.seed_fraction <= 1.0:
            raise PipelineError("seed_fraction must be in (0, 1]")


@dataclass
class FraudRing:
    """Ground truth of one planted ring."""

    ring_id: int
    members: np.ndarray
    products: np.ndarray
    seeded_members: np.ndarray


class TransactionStream:
    """A fully materialized synthetic transaction stream.

    ``transactions`` is read-only and sorted by day; a per-day offset
    table makes every window a contiguous slice of it.
    """

    def __init__(self, config: TransactionStreamConfig = TransactionStreamConfig()) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.rings: List[FraudRing] = []
        transactions = self._generate()
        days = transactions["day"]
        # A binary search per day reads a few scalars of the strided day
        # column; ``np.searchsorted`` would first copy the whole column.
        offsets = [
            bisect.bisect_left(days, day)
            for day in range(config.num_days + 1)
        ]
        # The day slices tile the stream, each holding only its own day,
        # exactly when the stream is sorted by day within [0, num_days).
        if (
            offsets[0] != 0
            or offsets[-1] != days.size
            or not all(
                np.all(days[lo:hi] == day)
                for day, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
            )
        ):
            raise PipelineError(
                f"transactions must be sorted by day within "
                f"[0, {config.num_days})"
            )
        transactions.setflags(write=False)
        self.transactions = transactions
        #: ``transactions[_day_offsets[d]:_day_offsets[d + 1]]`` is day d.
        self._day_offsets = offsets

    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return self.config.num_users

    @property
    def num_products(self) -> int:
        return self.config.num_products

    def ring_membership(self) -> np.ndarray:
        """``membership[user] = ring_id`` or -1 for honest users."""
        membership = np.full(self.config.num_users, -1, dtype=np.int64)
        for ring in self.rings:
            membership[ring.members] = ring.ring_id
        return membership

    def blacklist(self) -> dict:
        """Seed mapping ``{user_id: ring_id}`` of known-bad accounts."""
        seeds = {}
        for ring in self.rings:
            for user in ring.seeded_members:
                seeds[int(user)] = ring.ring_id
        return seeds

    def window_transactions(self, start_day: int, num_days: int) -> np.ndarray:
        """Transactions with ``start_day <= day < start_day + num_days``.

        Returns a read-only view into :attr:`transactions`, not a copy.
        """
        if num_days <= 0:
            raise PipelineError("num_days must be positive")
        last = self.config.num_days
        lo = self._day_offsets[min(max(start_day, 0), last)]
        hi = self._day_offsets[min(max(start_day + num_days, 0), last)]
        return self.transactions[lo:hi]

    # ------------------------------------------------------------------
    def _generate(self) -> np.ndarray:
        cfg = self.config
        rng = self._rng

        # Reserve the top of the user id space for ring members, so ground
        # truth stays easy to audit in tests.
        ring_base = cfg.num_users - cfg.num_rings * cfg.ring_size
        for ring_id in range(cfg.num_rings):
            members = np.arange(
                ring_base + ring_id * cfg.ring_size,
                ring_base + (ring_id + 1) * cfg.ring_size,
                dtype=np.int64,
            )
            products = rng.choice(
                cfg.num_products, size=cfg.ring_products, replace=False
            ).astype(np.int64)
            num_seeded = max(1, int(round(cfg.seed_fraction * cfg.ring_size)))
            seeded = members[:num_seeded]
            self.rings.append(
                FraudRing(
                    ring_id=ring_id,
                    members=members,
                    products=products,
                    seeded_members=seeded,
                )
            )

        cdf = popularity_cdf(
            zipf_popularity(cfg.num_products, cfg.zipf_exponent)
        )
        regulars_pool = max(1, int(cfg.regulars_pool_fraction * ring_base))
        n = cfg.transactions_per_day
        n_regular = int(cfg.regular_fraction * n)
        m = cfg.ring_transactions_per_day
        per_day = n + cfg.num_rings * m
        transactions = np.empty(
            cfg.num_days * per_day, dtype=TRANSACTION_DTYPE
        )
        days = transactions["day"]
        users = transactions["user"]
        products = transactions["product"]
        amounts = transactions["amount"]
        for day in range(cfg.num_days):
            lo = day * per_day
            days[lo:lo + per_day] = day
            # Normal traffic: a mix of a regulars pool and the long tail.
            mid, hi = lo + n_regular, lo + n
            users[lo:mid] = rng.integers(
                0, regulars_pool, n_regular, dtype=np.int64
            )
            users[mid:hi] = rng.integers(
                0, ring_base, n - n_regular, dtype=np.int64
            )
            products[lo:hi] = cdf.searchsorted(rng.random(n), side="right")
            amounts[lo:hi] = rng.lognormal(mean=3.0, sigma=1.0, size=n)

            # Ring traffic: members hammer ring products (and sprinkle a
            # little camouflage on popular products).
            for ring in self.rings:
                lo, hi = hi, hi + m
                users[lo:hi] = rng.choice(ring.members, size=m)
                camouflage = rng.random(m) < 0.1
                products[lo:hi] = np.where(
                    camouflage,
                    cdf.searchsorted(rng.random(m), side="right"),
                    rng.choice(ring.products, size=m),
                )
                amounts[lo:hi] = rng.lognormal(2.0, 0.5, m)

        return transactions
