"""Movie-review workload (Section 6.2, adapted from DeathStarBench).

A thirteen-SSF workflow whose core functionality is *posting* user
reviews, which skews the operation mix towards writes: composing a review
fans out into id generation, text/user/movie resolution, then four
storage-side writers (review storage, the user's review list, the movie's
review list, and the rating aggregate).

SSFs: frontend, compose, unique-id, text, user, movie-id, store-review,
user-reviews, movie-reviews, rating, movie-info, page, cast-info.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from ..runtime.ops import InvokeOp, ReadOp, WriteOp
from .base import Request, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

NUM_MOVIES = 200
NUM_USERS = 500


def movie_key(i: int) -> str:
    return f"movie{i:04d}"


def movie_reviews_key(i: int) -> str:
    return f"mreviews{i:04d}"


def user_key(i: int) -> str:
    return f"muser{i:04d}"


def user_reviews_key(i: int) -> str:
    return f"ureviews{i:04d}"


def rating_key(i: int) -> str:
    return f"rating{i:04d}"


def review_key(seq: int) -> str:
    return f"review{seq:07d}"


def cast_key(i: int) -> str:
    return f"cast{i:04d}"


def counter_key() -> str:
    return "review-counter"


# ---------------------------------------------------------------------------
# The thirteen SSFs
# ---------------------------------------------------------------------------

def movie_frontend(inp: Dict[str, Any]):
    """SSF 1: route to compose-review or page view."""
    if inp["action"] == "compose":
        result = yield InvokeOp("movie.compose", inp)
        return {"status": "posted", "review": result}
    result = yield InvokeOp("movie.page", inp)
    return {"status": "page", "page": result}


def movie_compose(inp: Dict[str, Any]):
    """SSF 2: orchestrates a review post."""
    review_id = yield InvokeOp("movie.unique_id", {})
    text = yield InvokeOp("movie.text", {"text": inp["text"]})
    user = yield InvokeOp("movie.user", {"user": inp["user"]})
    movie = yield InvokeOp("movie.movie_id", {"movie": inp["movie"]})
    review = {
        "id": review_id,
        "text": text,
        "user": user,
        "movie": movie,
        "stars": inp["stars"],
    }
    yield InvokeOp("movie.store_review", review)
    yield InvokeOp("movie.user_reviews", review)
    yield InvokeOp("movie.movie_reviews", review)
    yield InvokeOp("movie.rating", review)
    return review_id


def movie_unique_id(inp: Dict[str, Any]):
    """SSF 3: allocate a unique review id from a shared counter."""
    current = yield ReadOp(counter_key())
    yield WriteOp(counter_key(), current + 1)
    return current + 1


def movie_text(inp: Dict[str, Any]):
    """SSF 4: sanitize the review text (pure compute)."""
    return inp["text"].strip()[:256]
    yield  # pragma: no cover - marks this as a generator


def movie_user(inp: Dict[str, Any]):
    """SSF 5: resolve the posting user."""
    record = yield ReadOp(user_key(inp["user"]))
    return record["name"]


def movie_movie_id(inp: Dict[str, Any]):
    """SSF 6: resolve the movie."""
    record = yield ReadOp(movie_key(inp["movie"]))
    return record["title"]


def movie_store_review(review: Dict[str, Any]):
    """SSF 7: persist the review body."""
    yield WriteOp(review_key(review["id"]), review)
    return review["id"]


def movie_user_reviews(review: Dict[str, Any]):
    """SSF 8: append to the user's review list."""
    key = user_reviews_key_of(review["user"])
    existing = yield ReadOp(key)
    yield WriteOp(key, existing + [review["id"]])
    return len(existing) + 1


def movie_movie_reviews(review: Dict[str, Any]):
    """SSF 9: append to the movie's review list."""
    key = movie_reviews_key_of(review["movie"])
    existing = yield ReadOp(key)
    yield WriteOp(key, existing + [review["id"]])
    return len(existing) + 1


def movie_rating(review: Dict[str, Any]):
    """SSF 10: fold the new stars into the movie's rating aggregate."""
    key = rating_key_of(review["movie"])
    agg = yield ReadOp(key)
    updated = {
        "sum": agg["sum"] + review["stars"],
        "count": agg["count"] + 1,
    }
    yield WriteOp(key, updated)
    return updated["sum"] / updated["count"]


def movie_page(inp: Dict[str, Any]):
    """SSF 11: movie page = info + cast + recent reviews."""
    info = yield InvokeOp("movie.info", {"movie": inp["movie"]})
    cast = yield InvokeOp("movie.cast", {"movie": inp["movie"]})
    reviews = yield ReadOp(movie_reviews_key(inp["movie"]))
    return {"info": info, "cast": cast, "reviews": reviews[-5:]}


def movie_info(inp: Dict[str, Any]):
    """SSF 12: movie metadata + rating."""
    record = yield ReadOp(movie_key(inp["movie"]))
    agg = yield ReadOp(rating_key(inp["movie"]))
    rating = agg["sum"] / agg["count"] if agg["count"] else 0.0
    return {"title": record["title"], "rating": rating}


def movie_cast(inp: Dict[str, Any]):
    """SSF 13: cast info."""
    cast = yield ReadOp(cast_key(inp["movie"]))
    return cast


def user_reviews_key_of(user_name: str) -> str:
    return "ureviews" + user_name[len("name"):]


def movie_reviews_key_of(movie_title: str) -> str:
    return "mreviews" + movie_title[len("title"):]


def rating_key_of(movie_title: str) -> str:
    return "rating" + movie_title[len("title"):]


FUNCTIONS = {
    "movie.frontend": movie_frontend,
    "movie.compose": movie_compose,
    "movie.unique_id": movie_unique_id,
    "movie.text": movie_text,
    "movie.user": movie_user,
    "movie.movie_id": movie_movie_id,
    "movie.store_review": movie_store_review,
    "movie.user_reviews": movie_user_reviews,
    "movie.movie_reviews": movie_movie_reviews,
    "movie.rating": movie_rating,
    "movie.page": movie_page,
    "movie.info": movie_info,
    "movie.cast": movie_cast,
}


class MovieReviewWorkload(Workload):
    """Write-leaning thirteen-SSF movie review workflow."""

    name = "movie-review"

    def __init__(self, num_movies: int = NUM_MOVIES,
                 num_users: int = NUM_USERS,
                 compose_fraction: float = 0.7):
        self.num_movies = num_movies
        self.num_users = num_users
        self.compose_fraction = compose_fraction

    def register(self, runtime) -> None:
        for name, fn in FUNCTIONS.items():
            runtime.register(name, fn)

    def populate(self, runtime) -> None:
        runtime.populate(counter_key(), 0)
        for m in range(self.num_movies):
            runtime.populate(movie_key(m), {"title": f"title{m:04d}"})
            runtime.populate(movie_reviews_key(m), [])
            runtime.populate(rating_key(m), {"sum": 0, "count": 0})
            runtime.populate(cast_key(m), [f"actor{m % 37:02d}"])
        for u in range(self.num_users):
            runtime.populate(user_key(u), {"name": f"name{u:04d}"})
            runtime.populate(user_reviews_key(u), [])

    def next_request(self, rng: np.random.Generator) -> Request:
        compose = rng.random() < self.compose_fraction
        return Request(
            "movie.frontend",
            {
                "action": "compose" if compose else "page",
                "movie": int(rng.integers(self.num_movies)),
                "user": int(rng.integers(self.num_users)),
                "text": "a perfectly average film, really",
                "stars": int(rng.integers(1, 6)),
            },
        )

    def read_write_profile(self) -> Tuple[float, float]:
        # compose: 6 reads, 7 writes; page: 5 reads, 0 writes.
        c = self.compose_fraction
        return (6.0 * c + 5.0 * (1 - c), 7.0 * c)
