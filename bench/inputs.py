"""Seeded inputs for the benchmark, generated here and not by the package.

Everything a workload is measured on comes from ``numpy.random.default_rng``
seeded with the benchmark seed, so a change to ``bimoment`` cannot change
its own test data.  The Monte-Carlo workload is the one exception: drawing
its data is part of the work it measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENRES = (
    "action", "adventure", "animation", "children", "comedy", "crime",
    "documentary", "drama", "fantasy", "film-noir", "horror", "musical",
    "mystery", "romance", "sci-fi", "thriller", "war", "western",
)
MALE_GENRES = {"action", "adventure", "crime", "film-noir", "horror", "sci-fi",
               "thriller", "war", "western"}
YOUNG_GENRES = {"animation", "children", "comedy", "fantasy", "horror", "sci-fi"}
OLD_GENRES = {"documentary", "film-noir", "musical", "war", "western"}

SEX_GROUP = {g: "M" if g in MALE_GENRES else "F" for g in GENRES}
AGE_GROUP = {g: "young" if g in YOUNG_GENRES else "old" if g in OLD_GENRES else "mid"
             for g in GENRES}

RATINGS_GAMMA = (0.36, 0.25)
RATINGS_MIN_DEGREE = 40
WIDE_GAMMA = (0.5, 1.0)


@dataclass(frozen=True)
class RatingsInput:
    """A ratings-style data set written to disk, with its ground truth."""

    edges: Path
    actor_attrs: Path
    event_attrs: Path
    mapping: Path
    users: tuple
    movies: tuple
    weights: np.ndarray          # m x n, 0/1, before the degree filter
    sex: np.ndarray
    age: np.ndarray
    genre: np.ndarray
    planted_actors: frozenset    # labels the degree filter must remove
    planted_events: frozenset
    gamma: tuple
    n_edges: int


def match_covariates(sex, age, genre) -> np.ndarray:
    """The two match covariates (sex-genre, age-genre) as an m x n x 2 array."""
    sex_group = np.array([SEX_GROUP[g] for g in genre])
    age_group = np.array([AGE_GROUP[g] for g in genre])
    z1 = np.asarray(sex)[:, None] == sex_group[None, :]
    z2 = np.asarray(age)[:, None] == age_group[None, :]
    return np.stack([z1, z2], axis=2).astype(float)


def make_ratings(out_dir, seed: int, m: int = 700, n: int = 760,
                 n_planted: int = 5) -> RatingsInput:
    """A binary user x film graph with two attribute tables, the match
    mapping, and ``n_planted`` nodes per side whose degrees sit far below
    ``RATINGS_MIN_DEGREE`` while every other degree sits far above it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    users = tuple(f"u{i + 1:04d}" for i in range(m))
    movies = tuple(f"f{j + 1:04d}" for j in range(n))
    sex = rng.choice(["M", "F"], size=m, p=[0.71, 0.29])
    age = rng.choice(["young", "mid", "old"], size=m, p=[0.15, 0.70, 0.15])
    genre = rng.choice(GENRES, size=n)
    alpha = rng.normal(0.3, 0.35, size=m)
    beta = rng.normal(0.3, 0.35, size=n)
    planted_a = rng.choice(m, size=n_planted, replace=False)
    planted_e = rng.choice(n, size=n_planted, replace=False)
    alpha[planted_a] = -7.0
    beta[planted_e] = -7.0
    z = match_covariates(sex, age, genre)
    eta = alpha[:, None] + beta[None, :] + z @ np.asarray(RATINGS_GAMMA)
    weights = (rng.random((m, n)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    # a planted node with no edge would be absent from the edge list
    for i in planted_a:
        if weights[i].sum() == 0:
            weights[i, rng.integers(n)] = 1.0
    for j in planted_e:
        if weights[:, j].sum() == 0:
            weights[rng.integers(m), j] = 1.0

    rows, cols = np.nonzero(weights)
    edges = out_dir / "edges.tsv"
    edges.write_text("".join(f"{users[i]}\t{movies[j]}\n" for i, j in zip(rows, cols)),
                     encoding="utf-8")
    actor_attrs = out_dir / "users.tsv"
    actor_attrs.write_text(
        "id\tsex\tage_class\n"
        + "".join(f"{users[i]}\t{sex[i]}\t{age[i]}\n" for i in range(m)),
        encoding="utf-8")
    event_attrs = out_dir / "movies.tsv"
    event_attrs.write_text(
        "id\tgenre\n" + "".join(f"{movies[j]}\t{genre[j]}\n" for j in range(n)),
        encoding="utf-8")
    mapping = out_dir / "mapping.json"
    mapping.write_text(json.dumps({"mappings": [
        {"name": "sex_genre_match", "actor_attr": "sex", "event_attr": "genre",
         "groups": SEX_GROUP},
        {"name": "age_genre_match", "actor_attr": "age_class", "event_attr": "genre",
         "groups": AGE_GROUP},
    ]}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return RatingsInput(
        edges=edges, actor_attrs=actor_attrs, event_attrs=event_attrs,
        mapping=mapping, users=users, movies=movies, weights=weights,
        sex=sex, age=age, genre=genre,
        planted_actors=frozenset(users[i] for i in planted_a),
        planted_events=frozenset(movies[j] for j in planted_e),
        gamma=RATINGS_GAMMA, n_edges=int(rows.size),
    )


def sign_product_covariates(m: int, n: int, rng) -> np.ndarray:
    """Two covariates, each an outer product of actor and event signs; the
    first pair is +1 with probability 0.3 (actors) and 0.6 (events), the
    second pair is balanced."""
    def sign(count, prob_plus):
        return np.where(rng.random(count) < prob_plus, 1.0, -1.0)

    a1, e1, a2, e2 = sign(m, 0.3), sign(n, 0.6), sign(m, 0.5), sign(n, 0.5)
    return np.stack([np.outer(a1, e1), np.outer(a2, e2)], axis=2)


def make_wide_graphs(seed: int, count: int, m: int = 100, n: int = 1500):
    """``count`` logistic graphs at L = 0 (all degree parameters zero) with
    sign-product covariates and coefficients ``WIDE_GAMMA``.  Returns a list
    of ``(weights, covariates)``; every node has a degree strictly between
    0 and its maximum, which a finite estimate needs."""
    rng = np.random.default_rng([seed, 2])
    graphs = []
    while len(graphs) < count:
        z = sign_product_covariates(m, n, rng)
        eta = z @ np.asarray(WIDE_GAMMA)
        weights = (rng.random((m, n)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        d, b = weights.sum(axis=1), weights.sum(axis=0)
        if d.min() > 0 and b.min() > 0 and d.max() < n and b.max() < m:
            graphs.append((weights, z))
    return graphs
