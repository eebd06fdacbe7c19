"""The :class:`Table` column-store and its relational operators.

A table is an ordered mapping of column names to equal-length
:class:`~repro.tabular.column.Column` objects.  All operators are
functional: they return new tables and never mutate their input.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.tabular.column import Column, ColumnType

__all__ = ["Table", "concat_tables"]


def _nanmean(a: np.ndarray, axis: int | None = None):
    """``np.nanmean`` without its all-NaN ``RuntimeWarning``.

    Same arithmetic as NumPy's: the NaN-zeroed sum divided by the count
    of observed values, so an all-NaN group still yields the NaN of
    ``0.0 / 0`` bit for bit.  Non-float input goes to ``np.nanmean``.
    """
    a = np.asarray(a)
    if a.dtype.kind != "f":
        return np.nanmean(a, axis=axis)
    missing = np.isnan(a)
    total = np.where(missing, 0, a).sum(axis=axis)
    count = np.sum(~missing, axis=axis, dtype=np.intp)
    with np.errstate(invalid="ignore", divide="ignore"):
        return (total / count).astype(a.dtype)


def _nan_extreme(ufunc: np.ufunc, nan_fn: Callable) -> Callable:
    """``nan_fn`` (``np.nanmin``/``np.nanmax``) without its all-NaN warning.

    For non-object arrays NumPy computes both as exactly this
    ``fmin``/``fmax`` reduction and only adds the warning; object
    arrays keep NumPy's own path.
    """

    def reduce(a: np.ndarray, axis: int | None = None):
        if a.dtype == object:
            return nan_fn(a, axis=axis)
        return ufunc.reduce(a, axis=axis)

    return reduce


_nanmin = _nan_extreme(np.fmin, np.nanmin)
_nanmax = _nan_extreme(np.fmax, np.nanmax)


def _all_nan(a: np.ndarray) -> bool:
    return a.dtype.kind == "f" and bool(np.isnan(a).all())


#: Aggregation functions accepted by :meth:`Table.group_by`.  An all-NaN
#: float group gets NumPy's own answer without its ``RuntimeWarning``:
#: ``np.nanstd`` returns a fresh NaN there, ``np.nanmedian`` the group's
#: last value.
_AGGREGATIONS: dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda a: float(_nanmean(a)),
    "sum": lambda a: float(np.nansum(a)),
    "min": lambda a: float(_nanmin(a)),
    "max": lambda a: float(_nanmax(a)),
    "std": lambda a: np.nan if _all_nan(a) else float(np.nanstd(a)),
    "median": lambda a: float(a[-1] if _all_nan(a) else np.nanmedian(a)),
    "count": lambda a: float(np.size(a)),
    "first": lambda a: a[0],
    "last": lambda a: a[-1],
}


def _fast_reduce(ufunc_nan: Callable) -> Callable:
    """Equal-group-size aggregation: one axis-1 reduction per column.

    Rows of the reshaped ``(n_groups, size)`` matrix are the same
    contiguous slices the per-group path reduces, so NumPy's pairwise
    reduction produces bitwise-identical results to calling the 1-D
    aggregation group by group.
    """

    def reduce(values, order, starts, ends, size):
        mat = values[order].reshape(len(starts), size)
        return np.asarray(ufunc_nan(mat, axis=1), dtype=np.float64)

    return reduce


#: Vectorised counterparts of the built-in aggregations (same results as
#: the per-group path; ``std``/``median`` intentionally stay per-group).
_FAST_AGGREGATIONS: dict[str, Callable] = {
    "mean": _fast_reduce(_nanmean),
    "sum": _fast_reduce(np.nansum),
    "min": _fast_reduce(_nanmin),
    "max": _fast_reduce(_nanmax),
    "count": lambda values, order, starts, ends, size: (
        (ends - starts).astype(np.float64)
    ),
    "first": lambda values, order, starts, ends, size: values[order[starts]],
    "last": lambda values, order, starts, ends, size: values[order[ends - 1]],
}


class Table:
    """An immutable, typed, in-memory column-store.

    Parameters
    ----------
    columns:
        Either a mapping ``{name: values}`` (types inferred) or an iterable
        of :class:`Column` objects.  All columns must have equal length.

    Examples
    --------
    >>> t = Table({"patient": ["p1", "p2"], "age": [63, 71]})
    >>> t.num_rows, t.column_names
    (2, ('patient', 'age'))
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Mapping[str, object] | Iterable[Column] = ()):
        cols: dict[str, Column] = {}
        if isinstance(columns, Mapping):
            for name, values in columns.items():
                if isinstance(values, Column) and values.name == name:
                    cols[name] = values
                else:
                    cols[name] = Column(
                        name,
                        values.values
                        if isinstance(values, Column)
                        else values,
                    )
        else:
            for col in columns:
                if not isinstance(col, Column):
                    raise TypeError(f"expected Column, got {type(col).__name__}")
                if col.name in cols:
                    raise ValueError(f"duplicate column name {col.name!r}")
                cols[col.name] = col
        lengths = {len(c) for c in cols.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")
        self._columns = cols

    # ------------------------------------------------------------------
    # shape & access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows (0 for an empty table)."""
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in insertion order."""
        return tuple(self._columns)

    @property
    def schema(self) -> dict[str, ColumnType]:
        """Mapping of column name to its logical type."""
        return {name: col.ctype for name, col in self._columns.items()}

    def column(self, name: str) -> Column:
        """Return the column called ``name``.

        Raises
        ------
        KeyError
            If no such column exists; the message lists available names.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {list(self._columns)}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        """Shorthand for ``table.column(name).values``."""
        return self.column(name).values

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.num_rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(self._columns[n] == other._columns[n] for n in self._columns)

    def __hash__(self):  # pragma: no cover - explicit unhashability
        raise TypeError("Table is not hashable")

    def __repr__(self) -> str:
        return (
            f"Table({self.num_rows} rows x {self.num_columns} cols: "
            f"{list(self._columns)})"
        )

    def row(self, index: int) -> dict[str, object]:
        """Return row ``index`` as a dict (scalars, not arrays)."""
        n = self.num_rows
        if not -n <= index < n:
            raise IndexError(f"row {index} out of range for {n} rows")
        return {name: col.values[index] for name, col in self._columns.items()}

    def iter_rows(self):
        """Yield each row as a dict.  Convenient but not vectorised."""
        names = self.column_names
        arrays = [self._columns[n].values for n in names]
        for i in range(self.num_rows):
            yield {name: arr[i] for name, arr in zip(names, arrays)}

    # ------------------------------------------------------------------
    # projection / construction
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "Table":
        """Project onto ``names`` (order preserved as given)."""
        return Table([self.column(n) for n in names])

    def drop(self, names: Sequence[str]) -> "Table":
        """Return a table without the given columns."""
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise KeyError(f"cannot drop missing columns {missing}")
        keep = [c for n, c in self._columns.items() if n not in set(names)]
        return Table(keep)

    def with_column(self, name: str, values) -> "Table":
        """Return a table with ``name`` added or replaced."""
        col = values if isinstance(values, Column) else Column(name, values)
        if col.name != name:
            col = col.rename(name)
        if self._columns and len(col) != self.num_rows:
            raise ValueError(
                f"new column {name!r} has {len(col)} rows, table has {self.num_rows}"
            )
        cols = dict(self._columns)
        cols[name] = col
        return Table(cols.values())

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a table with columns renamed per ``mapping``."""
        missing = [n for n in mapping if n not in self._columns]
        if missing:
            raise KeyError(f"cannot rename missing columns {missing}")
        return Table(
            [c.rename(mapping.get(n, n)) for n, c in self._columns.items()]
        )

    # ------------------------------------------------------------------
    # selection / ordering
    # ------------------------------------------------------------------
    def filter(self, mask: np.ndarray) -> "Table":
        """Keep the rows where the boolean ``mask`` is true."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_:
            raise TypeError("filter mask must be boolean")
        if mask.shape != (self.num_rows,):
            raise ValueError(
                f"mask shape {mask.shape} does not match {self.num_rows} rows"
            )
        return Table([c[mask] for c in self._columns.values()])

    def where(
        self, name: str, predicate: Callable[[np.ndarray], np.ndarray]
    ) -> "Table":
        """Filter rows with a vectorised predicate over one column."""
        return self.filter(np.asarray(predicate(self[name]), dtype=bool))

    def take(self, indices) -> "Table":
        """Select rows by integer position (allows repetition/reordering)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Table([c[idx] for c in self._columns.values()])

    def head(self, n: int = 5) -> "Table":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self.num_rows)))

    def sort_by(self, names: Sequence[str] | str, descending: bool = False) -> "Table":
        """Stable sort by one or more columns (last name = primary key
        per ``numpy.lexsort`` convention is hidden; names are given
        primary-first)."""
        if isinstance(names, str):
            names = [names]
        keys = [_sortable(self[n]) for n in reversed(list(names))]
        order = np.lexsort(keys)
        if descending:
            order = order[::-1]
        return self.take(order)

    def unique(self, name: str) -> list:
        """Sorted unique non-missing values of one column."""
        col = self.column(name)
        mask = ~col.is_missing()
        vals = col.values[mask]
        return sorted(set(vals.tolist()))

    # ------------------------------------------------------------------
    # group-by / join / concat
    # ------------------------------------------------------------------
    def group_by(
        self,
        keys: Sequence[str] | str,
        aggregations: Mapping[str, str | Callable[[np.ndarray], object]],
    ) -> "Table":
        """Group rows by ``keys`` and aggregate other columns.

        Parameters
        ----------
        keys:
            Column name(s) to group on.
        aggregations:
            ``{column: agg}`` where ``agg`` is one of the built-in names
            (``mean``, ``sum``, ``min``, ``max``, ``std``, ``median``,
            ``count``, ``first``, ``last``) or a callable mapping an array
            of group values to a scalar.

        Returns
        -------
        Table
            One row per distinct key combination, ordered by first
            appearance; aggregated columns keep their original names.
        """
        if isinstance(keys, str):
            keys = [keys]
        for k in keys:
            self.column(k)
        agg_specs: dict[str, str | Callable] = {}
        agg_funcs: dict[str, Callable] = {}
        for cname, agg in aggregations.items():
            self.column(cname)
            if cname in keys:
                raise ValueError(f"cannot aggregate group key {cname!r}")
            agg_specs[cname] = agg
            agg_funcs[cname] = _AGGREGATIONS[agg] if isinstance(agg, str) else agg

        layout = self._group_layout(keys)
        if layout is None:
            return Table({k: [] for k in [*keys, *agg_funcs]})
        arrays, order, starts, ends, group_order = layout
        sizes = ends - starts
        uniform = int(sizes.min()) == int(sizes.max())

        out: dict[str, object] = {}
        first_rows = order[starts][group_order]
        for k, arr in zip(keys, arrays):
            out[k] = arr[first_rows]
        for cname, agg in agg_specs.items():
            values = self[cname]
            fast = (
                isinstance(agg, str)
                and agg in _FAST_AGGREGATIONS
                and (agg in ("first", "last") or values.dtype != object)
                and (uniform or agg in ("count", "first", "last"))
            )
            if fast:
                out[cname] = _FAST_AGGREGATIONS[agg](
                    values, order, starts, ends, int(sizes[0])
                )[group_order]
            else:
                fn = agg_funcs[cname]
                out[cname] = [
                    fn(values[order[starts[g] : ends[g]]]) for g in group_order
                ]
        return Table(out)

    def _group_layout(
        self, keys: Sequence[str]
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Vectorised group structure over the key columns.

        Returns ``(key_arrays, order, starts, ends, group_order)`` where
        ``order`` is a stable permutation placing each group's rows
        contiguously (original row order preserved inside a group),
        groups ``g`` span ``order[starts[g]:ends[g]]``, and
        ``group_order`` ranks groups by first appearance.  ``None`` for
        an empty table.
        """
        n = self.num_rows
        if n == 0:
            return None
        arrays = [self[k] for k in keys]
        if not arrays:
            zero = np.array([0], dtype=np.int64)
            return [], np.arange(n, dtype=np.int64), zero, np.array([n]), zero
        combined: np.ndarray | None = None
        for arr in arrays:
            _, inverse = np.unique(arr, return_inverse=True)
            inverse = inverse.astype(np.int64, copy=False)
            if combined is None:
                combined = inverse
            else:
                # Re-densify after each combine so codes stay < n and the
                # pairing product can never overflow int64.
                pair = combined * (int(inverse.max()) + 1) + inverse
                _, combined = np.unique(pair, return_inverse=True)
                combined = combined.astype(np.int64, copy=False)
        order = np.argsort(combined, kind="stable")
        sorted_codes = combined[order]
        boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        # The stable sort keeps row order within a group, so order[start]
        # is each group's first row; ranking those yields appearance order.
        group_order = np.argsort(order[starts], kind="stable")
        return arrays, order, starts, ends, group_order

    def _group_indices(self, keys: Sequence[str]) -> dict[tuple, np.ndarray]:
        """Map each distinct key tuple to the row indices holding it.

        Groups keep first-appearance order.  Built on the vectorised
        :meth:`_group_layout` pass instead of a per-row Python loop; one
        behavioural difference vs the old loop: NaN key values now form a
        single group (``np.unique`` collapses NaNs) instead of one group
        per NaN row (a ``nan != nan`` dict artefact).
        """
        layout = self._group_layout(keys)
        if layout is None:
            return {}
        arrays, order, starts, ends, group_order = layout
        out: dict[tuple, np.ndarray] = {}
        for g in group_order:
            idx = order[starts[g] : ends[g]]
            out[tuple(arr[idx[0]] for arr in arrays)] = idx
        return out

    def join(
        self,
        other: "Table",
        on: Sequence[str] | str,
        how: str = "inner",
        suffix: str = "_right",
    ) -> "Table":
        """Equi-join with ``other`` on the columns ``on``.

        Supports ``how`` in {"inner", "left"}.  Non-key columns of
        ``other`` that collide with this table's names get ``suffix``
        appended.  For a left join with no match, FLOAT columns get NaN
        and STRING columns get None; INT/BOOL right columns are promoted
        to FLOAT so the missing marker is representable.
        """
        if how not in ("inner", "left"):
            raise ValueError(f"unsupported join type {how!r}")
        if isinstance(on, str):
            on = [on]
        for k in on:
            self.column(k)
            other.column(k)

        right_index = other._group_indices(on)
        left_arrays = [self[k] for k in on]

        left_rows: list[int] = []
        right_rows: list[int] = []
        unmatched: list[int] = []
        for i in range(self.num_rows):
            key = tuple(arr[i] for arr in left_arrays)
            matches = right_index.get(key)
            if matches is None:
                if how == "left":
                    unmatched.append(i)
                continue
            left_rows.extend([i] * len(matches))
            right_rows.extend(matches.tolist())

        right_names = [n for n in other.column_names if n not in on]
        out_cols: list[Column] = []
        left_order = left_rows + unmatched
        for col in self._columns.values():
            out_cols.append(
                col[np.asarray(left_order, dtype=np.int64)]
                if left_order
                else col[np.asarray([], dtype=np.int64)]
            )
        for name in right_names:
            col = other.column(name)
            taken = (
                col[np.asarray(right_rows, dtype=np.int64)]
                if right_rows
                else col[np.asarray([], dtype=np.int64)]
            )
            if unmatched:
                taken = _pad_missing(taken, len(unmatched))
            out_name = name if name not in self._columns else name + suffix
            out_cols.append(taken.rename(out_name))
        return Table(out_cols)

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack numeric columns into a ``float64`` design matrix."""
        names = list(names) if names is not None else [
            n for n, c in self._columns.items() if c.ctype is not ColumnType.STRING
        ]
        cols = []
        for n in names:
            col = self.column(n)
            if col.ctype is ColumnType.STRING:
                raise TypeError(f"column {n!r} is STRING; cannot enter a matrix")
            cols.append(col.values.astype(np.float64))
        if not cols:
            return np.empty((self.num_rows, 0), dtype=np.float64)
        return np.column_stack(cols)

    def to_dict(self) -> dict[str, list]:
        """Return ``{name: list_of_values}``."""
        return {n: c.to_list() for n, c in self._columns.items()}

    def describe(self) -> "Table":
        """Per-column summary statistics.

        Returns a table with one row per column of this table and the
        columns ``column``, ``type``, ``count`` (non-missing),
        ``missing``, ``mean``, ``std``, ``min``, ``max`` (NaN for
        non-numeric columns).
        """
        names: list[str] = []
        types: list[str] = []
        counts: list[int] = []
        missing: list[int] = []
        means: list[float] = []
        stds: list[float] = []
        mins: list[float] = []
        maxs: list[float] = []
        for name, col in self._columns.items():
            names.append(name)
            types.append(col.ctype.value)
            n_missing = col.count_missing()
            missing.append(n_missing)
            counts.append(len(col) - n_missing)
            if col.ctype is ColumnType.STRING:
                means.append(np.nan)
                stds.append(np.nan)
                mins.append(np.nan)
                maxs.append(np.nan)
                continue
            values = col.values.astype(np.float64)
            observed = values[~np.isnan(values)]
            if observed.size == 0:
                means.append(np.nan)
                stds.append(np.nan)
                mins.append(np.nan)
                maxs.append(np.nan)
            else:
                means.append(float(observed.mean()))
                stds.append(float(observed.std()))
                mins.append(float(observed.min()))
                maxs.append(float(observed.max()))
        return Table(
            {
                "column": names,
                "type": types,
                "count": counts,
                "missing": missing,
                "mean": means,
                "std": stds,
                "min": mins,
                "max": maxs,
            }
        )


def concat_tables(tables: Sequence[Table]) -> Table:
    """Vertically concatenate tables with identical schemas."""
    tables = [t for t in tables if t.num_columns]
    if not tables:
        return Table()
    names = tables[0].column_names
    for t in tables[1:]:
        if t.column_names != names:
            raise ValueError(
                f"schema mismatch: {t.column_names} vs {names}"
            )
    cols = []
    for n in names:
        ctype = tables[0].column(n).ctype
        data = np.concatenate([t.column(n).values for t in tables])
        cols.append(Column(n, data, ctype))
    return Table(cols)


def _pad_missing(col: Column, n: int) -> Column:
    """Append ``n`` missing markers to ``col``, promoting type if needed."""
    if col.ctype in (ColumnType.INT, ColumnType.BOOL):
        col = col.cast(ColumnType.FLOAT)
    if col.ctype is ColumnType.FLOAT:
        data = np.concatenate([col.values, np.full(n, np.nan)])
        return Column(col.name, data, ColumnType.FLOAT)
    data = np.concatenate([col.values, np.array([None] * n, dtype=object)])
    return Column(col.name, data, ColumnType.STRING)


def _sortable(values: np.ndarray) -> np.ndarray:
    """Encode a column as a lexsort-compatible numeric key.

    Numeric/bool columns pass through; object (string) columns are
    factorised into dense ranks with None sorting first.
    """
    if values.dtype != object:
        return values
    present = sorted({v for v in values if v is not None})
    rank = {v: i + 1 for i, v in enumerate(present)}
    rank[None] = 0
    return np.array([rank[v] for v in values], dtype=np.int64)
