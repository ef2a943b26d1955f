"""Columnar account storage: the population's one account store.

Every account is one row of :class:`AccountColumns`, and a row index
is the only handle to an account: ``Population.index_of`` maps a user
id to its row and ``Population.order[row]`` maps back.  The hot engine
phases (activity draws, suspension hazard, counter growth, victim
scoring) run as vectorized column operations; everything else reads
or writes single cells of :meth:`AccountColumns.column` and freezes a
row into a public profile with :meth:`AccountColumns.snapshot`.
``build_population`` appends accounts straight into the columns;
``AccountState`` survives only as the record a single registration
appends.

Determinism contract: ``snapshot`` returns plain Python
``int``/``float``/``bool`` scalars, and every vectorized engine path
consumes the master RNG in a fixed order, so the same seed gives the
same bytes (pinned by the golden digests in
``tests/golden/test_world_digests.py``).

Layout summary (see DESIGN.md §14):

- numeric/bool state: capacity-doubling numpy arrays (``float64`` /
  ``int64`` / ``bool``), one row per account, append-only;
- identity strings (screen name, display name, description): plain
  Python lists, row-aligned;
- user id -> row: dense dict (ids are allocated densely, but an
  operator account registers its id after other ids may have been
  allocated, so the indirection stays).

Growth rule: an append past capacity replaces every numeric array, so
a column fetched before a registration no longer aliases the store
after it.  Hold a column across a loop only where no account can
register inside it, and fetch it again after one does.
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
    # Organic activity: statuses and favourites per day, and the
    # probability that a post engages a trending topic.  Spam accounts
    # post through their campaign logic and keep 0.0.
    ("post_rate_per_day", np.dtype(np.float64), 0.0),
    ("fav_rate_per_day", np.dtype(np.float64), 0.0),
    ("topic_affinity", np.dtype(np.float64), 0.0),
    # Operator accounts, exempt from burst dormancy.
    ("always_on", np.dtype(np.bool_), False),
    # Campaign members and lone wolves face the *spam* suspension
    # hazard; compromised relays keep the normal one.
    ("spam_hazard", np.dtype(np.bool_), False),
    # Campaign members, whom a suspension respawns.
    ("campaign_member", np.dtype(np.bool_), False),
)

#: Row-aligned Python string columns.
ACCOUNT_STRING_COLUMNS: tuple[str, ...] = (
    "screen_name",
    "name",
    "description",
)


class AccountColumns:
    """Struct-of-arrays store of every account's state.

    Arrays are over-allocated (capacity doubling) so appends are
    amortized O(1); ``n`` is the live row count, and :meth:`column`
    returns a numeric column's ``[:n]`` slice, which aliases the
    backing storage: vectorized writers mutate account state in place.
    """

    __slots__ = ("n", "_capacity", "_arrays", "_strings")

    def __init__(self, capacity: int = 1024) -> None:
        self.n = 0
        self._capacity = max(int(capacity), 1)
        self._arrays: dict[str, np.ndarray] = {
            name: np.full(self._capacity, fill, dtype=dtype)
            for name, dtype, fill in ACCOUNT_NUMERIC_COLUMNS
        }
        self._strings: dict[str, list[str]] = {
            name: [] for name in ACCOUNT_STRING_COLUMNS
        }

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
        """Append one account's fields; returns its row index.

        The activity columns keep their fill values; the caller sets
        them at the returned row.
        """
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
        strings = self._strings
        strings["screen_name"].append(account.screen_name)
        strings["name"].append(account.name)
        strings["description"].append(account.description)
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
        for name, strings in self._strings.items():
            strings.extend(fields.pop(name))
        for name, values in fields.items():
            self._arrays[name][start:end] = values
        self.n = end

    # -- access -----------------------------------------------------------

    def column(self, name: str) -> np.ndarray | list[str]:
        """One column, aliasing the store.

        A numeric column comes back as its live ``[:n]`` array slice, a
        string column as its row-aligned list.  A numeric slice covers
        only the rows that existed when it was fetched, and stops
        aliasing the store once a later append grows it (see the
        module's growth rule).
        """
        array = self._arrays.get(name)
        if array is None:
            return self._strings[name]
        return array[: self.n]

    def snapshot(self, row: int) -> UserProfile:
        """Freeze one row into a public profile snapshot.

        ``ndarray.item(row)`` converts straight to a Python scalar in
        one C call, skipping the intermediate numpy scalar that
        ``int(array[row])`` would allocate: this runs once per
        finalized tweet and once per REST profile lookup, so the
        constant matters.  Positional construction matches the
        :class:`UserProfile` field order.
        """
        arrays = self._arrays
        strings = self._strings
        return UserProfile(
            arrays["user_id"].item(row),
            strings["screen_name"][row],
            strings["name"][row],
            arrays["created_at"].item(row),
            strings["description"][row],
            arrays["friends_count"].item(row),
            arrays["followers_count"].item(row),
            arrays["statuses_count"].item(row),
            arrays["listed_count"].item(row),
            arrays["favourites_count"].item(row),
            arrays["verified"].item(row),
            arrays["default_profile_image"].item(row),
            arrays["profile_image_id"].item(row),
        )
