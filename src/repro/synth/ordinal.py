"""Monotone ordinal links: latent score -> categorical answer.

The 56 PRO questionnaire items are categorical (the paper's examples use
1..10 stress scales and 1..5 EQ-5D-style items).  Each item is modelled as
an ordinal discretisation of a latent domain score through item-specific
thresholds; some items are *reversed* (high answer = worse health) and
some are nearly uninformative — this heterogeneity is what makes per-
patient Shapley rankings differ (paper Fig. 6).

:class:`OrdinalBank` stacks many links into read-only arrays so that a
whole questionnaire is answered with one normal draw and one vectorised
discretisation.  The draw consumes the generator exactly as one
:meth:`OrdinalLink.sample` call per item in bank order would, so batched
and per-item answers are bit-identical; :meth:`OrdinalLink.sample` is the
one-item case of the bank.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["OrdinalLink", "OrdinalBank"]


class OrdinalLink:
    """Map a latent score in [0, 1] to ordinal answers ``1..n_levels``.

    Parameters
    ----------
    n_levels:
        Number of answer categories (>= 2).
    thresholds:
        Strictly increasing cut points in (0, 1), length ``n_levels - 1``.
        A latent value below ``thresholds[0]`` maps to answer 1, etc.
    reversed_scale:
        If True the answer order is flipped (answer 1 = best health).
    noise_sd:
        Standard deviation of latent noise added before discretisation;
        larger values make the item less informative.
    """

    def __init__(
        self,
        n_levels: int,
        thresholds: np.ndarray | list[float],
        reversed_scale: bool = False,
        noise_sd: float = 0.1,
    ):
        if n_levels < 2:
            raise ValueError("n_levels must be >= 2")
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.shape != (n_levels - 1,):
            raise ValueError(
                f"need {n_levels - 1} thresholds for {n_levels} levels, "
                f"got {thresholds.shape}"
            )
        if np.any(np.diff(thresholds) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if np.any((thresholds <= 0) | (thresholds >= 1)):
            raise ValueError("thresholds must lie strictly inside (0, 1)")
        if noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        self.n_levels = int(n_levels)
        self.thresholds = thresholds
        self.reversed_scale = bool(reversed_scale)
        self.noise_sd = float(noise_sd)

    @classmethod
    def equispaced(
        cls,
        n_levels: int,
        reversed_scale: bool = False,
        noise_sd: float = 0.1,
        skew: float = 0.0,
    ) -> "OrdinalLink":
        """Build a link with (optionally skewed) equispaced thresholds.

        ``skew`` in (-1, 1) warps the cut points towards 0 (negative) or 1
        (positive) with a power transform, modelling items whose answers
        bunch at one end of the scale.
        """
        if not -1.0 < skew < 1.0:
            raise ValueError("skew must be in (-1, 1)")
        base = np.linspace(0, 1, n_levels + 1)[1:-1]
        # Positive skew raises the cut points (exponent < 1 on a base in
        # (0, 1)), so high answers become rarer (ceiling effect).
        exponent = (1.0 - skew) / (1.0 + skew)
        return cls(n_levels, base**exponent, reversed_scale, noise_sd)

    def sample(self, latent: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw ordinal answers for latent scores ``latent``.

        Returns integer answers in ``1..n_levels`` (int64 array).  Raises
        ``ValueError`` (before drawing) if any latent score is NaN.
        """
        latent = np.asarray(latent, dtype=np.float64)
        return OrdinalBank([self]).sample(latent[None], rng)[0, ...]

    def expected_answer(self, latent: float) -> int:
        """Noise-free answer for a latent score (useful in tests)."""
        answer = int(np.searchsorted(self.thresholds, np.clip(latent, 0.0, 1.0))) + 1
        if self.reversed_scale:
            answer = self.n_levels + 1 - answer
        return answer


class OrdinalBank:
    """Read-only stacked parameters of ``k`` ordinal links.

    Attributes
    ----------
    thresholds:
        ``float64[k, w]``: each link's cut points, right-padded with
        ``+inf`` to the widest link (``w = max(n_levels) - 1``).
    noise_sd:
        ``float64[k]`` latent noise SD per link.
    n_levels:
        ``int64[k]`` answer categories per link.
    reversed_scale:
        ``bool[k]``: links whose answer order is flipped.

    All four arrays are write-protected, so one bank can be shared by
    every patient of a cohort.
    """

    __slots__ = ("thresholds", "noise_sd", "n_levels", "reversed_scale")

    def __init__(self, links: Iterable[OrdinalLink]):
        links = list(links)
        if not links:
            raise ValueError("an ordinal bank needs at least one link")
        width = max(link.n_levels for link in links) - 1
        thresholds = np.full((len(links), width), np.inf)
        for row, link in zip(thresholds, links):
            row[: link.n_levels - 1] = link.thresholds
        self.thresholds = thresholds
        self.noise_sd = np.array([link.noise_sd for link in links])
        self.n_levels = np.array([link.n_levels for link in links], dtype=np.int64)
        self.reversed_scale = np.array([link.reversed_scale for link in links])
        for arr in (self.thresholds, self.noise_sd, self.n_levels, self.reversed_scale):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.noise_sd)

    def sample(self, latent: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Answers of every link: ``latent[i]`` feeds link ``i``.

        ``latent`` has shape ``(k, ...)``; the result is ``int64`` of the
        same shape.  One ``rng.normal`` call draws the noise of all links
        in C order (link 0 first), exactly the standard normals that
        ``k`` successive per-link calls would consume, and scales each by
        its link's SD elementwise as those calls do.  The answer is one
        plus the number of cut points strictly below the clipped noisy
        score, which is ``searchsorted(side="left")`` for a non-NaN
        score; NaN scores are rejected before anything is drawn.
        """
        latent = np.asarray(latent, dtype=np.float64)
        k = len(self)
        if latent.ndim == 0 or latent.shape[0] != k:
            raise ValueError(f"latent must have shape ({k}, ...), got {latent.shape}")
        if np.isnan(latent).any():
            raise ValueError("latent scores must not be NaN")
        per_link = (k,) + (1,) * (latent.ndim - 1)
        noisy = latent + rng.normal(0.0, self.noise_sd.reshape(per_link), latent.shape)
        score = np.clip(noisy, 0.0, 1.0)[..., None]
        cuts = self.thresholds.reshape(per_link + (-1,))
        answers = np.count_nonzero(cuts < score, axis=-1) + 1
        flipped = self.n_levels.reshape(per_link) + 1 - answers
        return np.where(self.reversed_scale.reshape(per_link), flipped, answers)
