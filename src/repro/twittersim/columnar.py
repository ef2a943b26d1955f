"""Columnar account storage: the million-account data plane.

The population's one account store.  Mutable account state is a numpy
struct-of-arrays keyed by dense row index, so the hot engine phases
(activity draws, suspension hazard, counter growth, victim scoring)
run as vectorized column operations, while thin :class:`AccountView`
objects keep the :class:`~repro.twittersim.entities.AccountState`
attribute API for everything else (REST surface, feature extractors,
campaigns, tests).  ``build_population`` appends accounts straight
into the columns; ``AccountState`` survives only as the record a
single registration appends.

Determinism contract: views return plain Python ``int``/``float``/
``bool`` scalars, and every vectorized engine path consumes the master
RNG in a fixed order, so the same seed gives the same bytes (pinned by
the golden digests in ``tests/golden/test_world_digests.py``).

Layout summary (see DESIGN.md §14):

- numeric/bool state: capacity-doubling numpy arrays (``float64`` /
  ``int64`` / ``bool``), one row per account, append-only;
- identity strings (screen name, display name, description): plain
  Python lists, row-aligned;
- user id -> row: dense dict (ids are allocated densely, but an
  operator account registers its id after other ids may have been
  allocated, so the indirection stays).
"""

from __future__ import annotations

import numpy as np

from .entities import AccountState, UserProfile

_NEG_INF = float("-inf")

#: (name, dtype, fill) of every numeric/bool account column.
ACCOUNT_NUMERIC_COLUMNS: tuple[tuple[str, np.dtype, float], ...] = (
    ("user_id", np.dtype(np.int64), 0),
    ("created_at", np.dtype(np.float64), 0.0),
    ("friends_count", np.dtype(np.int64), 0),
    ("followers_count", np.dtype(np.int64), 0),
    ("statuses_count", np.dtype(np.int64), 0),
    ("listed_count", np.dtype(np.int64), 0),
    ("favourites_count", np.dtype(np.int64), 0),
    ("profile_image_id", np.dtype(np.int64), 0),
    ("verified", np.dtype(np.bool_), False),
    ("default_profile_image", np.dtype(np.bool_), False),
    ("suspended", np.dtype(np.bool_), False),
    ("last_post_at", np.dtype(np.float64), _NEG_INF),
    ("last_mentioned_at", np.dtype(np.float64), _NEG_INF),
)

#: Row-aligned Python string columns.
ACCOUNT_STRING_COLUMNS: tuple[str, ...] = (
    "screen_name",
    "name",
    "description",
)


class AccountColumns:
    """Struct-of-arrays store of mutable account state.

    Arrays are over-allocated (capacity doubling) so appends are
    amortized O(1); ``n`` is the live row count and every public array
    accessor returns the ``[:n]`` slice, which aliases the backing
    storage — vectorized writers mutate account state in place.
    """

    __slots__ = (
        "n",
        "_capacity",
        "_arrays",
        "screen_name",
        "name",
        "description",
    )

    def __init__(self, capacity: int = 1024) -> None:
        self.n = 0
        self._capacity = max(int(capacity), 1)
        self._arrays: dict[str, np.ndarray] = {
            name: np.full(self._capacity, fill, dtype=dtype)
            for name, dtype, fill in ACCOUNT_NUMERIC_COLUMNS
        }
        self.screen_name: list[str] = []
        self.name: list[str] = []
        self.description: list[str] = []

    # -- growth -----------------------------------------------------------

    def _grow_to(self, capacity: int) -> None:
        new_capacity = self._capacity
        while new_capacity < capacity:
            new_capacity *= 2
        for name, dtype, fill in ACCOUNT_NUMERIC_COLUMNS:
            grown = np.full(new_capacity, fill, dtype=dtype)
            grown[: self.n] = self._arrays[name][: self.n]
            self._arrays[name] = grown
        self._capacity = new_capacity

    def append_state(self, account: AccountState) -> int:
        """Append one account's fields; returns its row index."""
        row = self.n
        if row >= self._capacity:
            self._grow_to(row + 1)
        arrays = self._arrays
        arrays["user_id"][row] = account.user_id
        arrays["created_at"][row] = account.created_at
        arrays["friends_count"][row] = account.friends_count
        arrays["followers_count"][row] = account.followers_count
        arrays["statuses_count"][row] = account.statuses_count
        arrays["listed_count"][row] = account.listed_count
        arrays["favourites_count"][row] = account.favourites_count
        arrays["profile_image_id"][row] = account.profile_image_id
        arrays["verified"][row] = account.verified
        arrays["default_profile_image"][row] = account.default_profile_image
        arrays["suspended"][row] = account.suspended
        arrays["last_post_at"][row] = account.last_post_at
        arrays["last_mentioned_at"][row] = account.last_mentioned_at
        self.screen_name.append(account.screen_name)
        self.name.append(account.name)
        self.description.append(account.description)
        self.n = row + 1
        return row

    def extend(self, **fields) -> None:
        """Append a block of rows, one equal-length sequence per field.

        Every string column is required; an omitted numeric column keeps
        its fill value (``suspended`` False, timestamps ``-inf``).
        """
        start = self.n
        end = start + len(fields["user_id"])
        if end > self._capacity:
            self._grow_to(end)
        for name in ACCOUNT_STRING_COLUMNS:
            getattr(self, name).extend(fields.pop(name))
        for name, values in fields.items():
            self._arrays[name][start:end] = values
        self.n = end

    # -- array access -----------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The live ``[:n]`` slice of a numeric column (aliasing)."""
        return self._arrays[name][: self.n]

    def snapshot_rows(self, rows: list[int]) -> list[UserProfile]:
        """Profile snapshots of many rows with hoisted column lookups.

        Identical output to per-row :meth:`AccountView.snapshot`; the
        batch form serves ``users/lookup``-style bulk reads without
        paying a view resolution and ten dict lookups per row.
        """
        arrays = self._arrays
        user_id = arrays["user_id"]
        created_at = arrays["created_at"]
        friends = arrays["friends_count"]
        followers = arrays["followers_count"]
        statuses = arrays["statuses_count"]
        listed = arrays["listed_count"]
        favourites = arrays["favourites_count"]
        verified = arrays["verified"]
        default_image = arrays["default_profile_image"]
        image_id = arrays["profile_image_id"]
        screen_name = self.screen_name
        name = self.name
        description = self.description
        return [
            UserProfile(
                user_id.item(row),
                screen_name[row],
                name[row],
                created_at.item(row),
                description[row],
                friends.item(row),
                followers.item(row),
                statuses.item(row),
                listed.item(row),
                favourites.item(row),
                verified.item(row),
                default_image.item(row),
                image_id.item(row),
            )
            for row in rows
        ]

    def __getattr__(self, name: str) -> np.ndarray:
        # Numeric columns resolve as attributes: ``cols.suspended``.
        try:
            arrays = object.__getattribute__(self, "_arrays")
            return arrays[name][: self.n]
        except (AttributeError, KeyError):
            raise AttributeError(name) from None


class AccountView:
    """A thin object view of one account row.

    Duck-types :class:`~repro.twittersim.entities.AccountState`: every
    attribute read returns a plain Python scalar (so downstream
    formatting, hashing, and JSON see the same types an
    ``AccountState`` holds) and every attribute write lands in the
    backing column.
    """

    __slots__ = ("_cols", "_row")

    def __init__(self, cols: AccountColumns, row: int) -> None:
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_row", row)

    # Numeric fields --------------------------------------------------------

    @property
    def user_id(self) -> int:
        return int(self._cols._arrays["user_id"][self._row])

    @property
    def created_at(self) -> float:
        return float(self._cols._arrays["created_at"][self._row])

    @property
    def friends_count(self) -> int:
        return int(self._cols._arrays["friends_count"][self._row])

    @property
    def followers_count(self) -> int:
        return int(self._cols._arrays["followers_count"][self._row])

    @property
    def statuses_count(self) -> int:
        return int(self._cols._arrays["statuses_count"][self._row])

    @property
    def listed_count(self) -> int:
        return int(self._cols._arrays["listed_count"][self._row])

    @property
    def favourites_count(self) -> int:
        return int(self._cols._arrays["favourites_count"][self._row])

    @property
    def profile_image_id(self) -> int:
        return int(self._cols._arrays["profile_image_id"][self._row])

    @property
    def verified(self) -> bool:
        return bool(self._cols._arrays["verified"][self._row])

    @property
    def default_profile_image(self) -> bool:
        return bool(self._cols._arrays["default_profile_image"][self._row])

    @property
    def suspended(self) -> bool:
        return bool(self._cols._arrays["suspended"][self._row])

    @property
    def last_post_at(self) -> float:
        return float(self._cols._arrays["last_post_at"][self._row])

    @property
    def last_mentioned_at(self) -> float:
        return float(self._cols._arrays["last_mentioned_at"][self._row])

    # String fields ---------------------------------------------------------

    @property
    def screen_name(self) -> str:
        return self._cols.screen_name[self._row]

    @property
    def name(self) -> str:
        return self._cols.name[self._row]

    @property
    def description(self) -> str:
        return self._cols.description[self._row]

    # Writes ----------------------------------------------------------------

    def __setattr__(self, key: str, value) -> None:
        cols = self._cols
        arrays = cols._arrays
        if key in arrays:
            arrays[key][self._row] = value
        elif key in ACCOUNT_STRING_COLUMNS:
            getattr(cols, key)[self._row] = value
        else:
            raise AttributeError(f"unknown account field {key!r}")

    # AccountState API -------------------------------------------------------

    def snapshot(self) -> UserProfile:
        """Freeze the current row into a public profile snapshot.

        ``ndarray.item(row)`` converts straight to a Python scalar in
        one C call, skipping the intermediate numpy scalar that
        ``int(array[row])`` would allocate — this method runs once per
        finalized tweet and once per REST profile lookup, so the
        constant matters.  Positional construction matches the
        :class:`UserProfile` field order.
        """
        cols = self._cols
        arrays = cols._arrays
        row = self._row
        return UserProfile(
            arrays["user_id"].item(row),
            cols.screen_name[row],
            cols.name[row],
            arrays["created_at"].item(row),
            cols.description[row],
            arrays["friends_count"].item(row),
            arrays["followers_count"].item(row),
            arrays["statuses_count"].item(row),
            arrays["listed_count"].item(row),
            arrays["favourites_count"].item(row),
            arrays["verified"].item(row),
            arrays["default_profile_image"].item(row),
            arrays["profile_image_id"].item(row),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AccountView(row={self._row}, user_id={self.user_id}, "
            f"screen_name={self.screen_name!r})"
        )


class AccountMap:
    """Dict-like ``user_id -> AccountView`` facade over the columns.

    Supports exactly the mapping surface the codebase uses on
    ``Population.accounts``: ``[]``, ``.get``, ``in``, ``len``,
    iteration, ``keys``/``values``/``items``.  Views are cached per
    user id, so repeated lookups return the identical object.
    """

    __slots__ = ("_cols", "_row_of", "_views")

    def __init__(self, cols: AccountColumns, row_of: dict[int, int]) -> None:
        self._cols = cols
        self._row_of = row_of
        self._views: dict[int, AccountView] = {}

    def view(self, user_id: int) -> AccountView:
        view = self._views.get(user_id)
        if view is None:
            view = AccountView(self._cols, self._row_of[user_id])
            self._views[user_id] = view
        return view

    def __getitem__(self, user_id: int) -> AccountView:
        return self.view(user_id)

    def get(self, user_id: int, default=None):
        if user_id not in self._row_of:
            return default
        return self.view(user_id)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._row_of

    def __len__(self) -> int:
        return len(self._row_of)

    def __iter__(self):
        return iter(self._row_of)

    def keys(self):
        return self._row_of.keys()

    def values(self):
        for user_id in self._row_of:
            yield self.view(user_id)

    def items(self):
        for user_id in self._row_of:
            yield user_id, self.view(user_id)
