"""Indexed ground-fact storage for bottom-up evaluation.

:class:`FactStore` maps relation signatures ``(pred, arity)`` to sets of
ground argument tuples, with lazily built hash indexes keyed by the
values at a tuple of argument positions.  A join plan asks for the
index on the positions its literal has bound when it is reached.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Dict, List, Set, Tuple

from .ast import Atom
from .terms import Term, term_sort_key

Signature = Tuple[str, int]
FactArgs = Tuple[Term, ...]


class FactStore:
    """A mutable set of ground facts with multi-position indexes."""

    def __init__(self):
        self._facts: Dict[Signature, Set[FactArgs]] = defaultdict(set)
        # _indexes[sig][positions] -> (key of a row, {key: [rows]})
        self._indexes: Dict[Signature, Dict[Tuple[int, ...], tuple]] = {}

    def __len__(self):
        return sum(len(rows) for rows in self._facts.values())

    def count(self, pred, arity):
        return len(self._facts.get((pred, arity), ()))

    def signatures(self):
        return [sig for sig, rows in self._facts.items() if rows]

    def add(self, atom):
        """Insert a ground atom; returns True if it was new."""
        if not atom.is_ground():
            raise ValueError("cannot store non-ground fact: %s" % atom)
        return bool(self.add_rows(atom.signature, (atom.args,)))

    def add_rows(self, sig, batch):
        """Insert ground argument tuples under `sig`; returns the list
        of those that were new, in order."""
        rows = self._facts[sig]
        new = []
        for args in batch:
            if args not in rows:
                rows.add(args)
                new.append(args)
        indexes = self._indexes.get(sig)
        if indexes and new:
            for key_of, index in indexes.values():
                _file(index, key_of, new)
        return new

    def contains(self, atom):
        """Membership test for a ground atom."""
        return atom.args in self._facts.get(atom.signature, ())

    def rows(self, sig):
        """All argument tuples stored under `sig` (a live set: do not
        mutate while iterating)."""
        return self._facts.get(sig, frozenset())

    def index(self, sig, positions):
        """The rows of `sig` by their values at `positions`.

        A dict from key to the list of rows with that key, where a key
        is the row's value at the one position, or the tuple of its
        values at several (``operator.itemgetter(*positions)``).  It is
        built on first use and kept up to date as rows are added.
        """
        indexes = self._indexes.setdefault(sig, {})
        entry = indexes.get(positions)
        if entry is None:
            key_of = itemgetter(*positions)
            index: Dict[object, List[FactArgs]] = {}
            _file(index, key_of, self._facts.get(sig, ()))
            # published whole: a reader of a shared store may be
            # looking the same index up
            entry = indexes[positions] = (key_of, index)
        return entry[1]

    def iter_atoms(self, pred=None):
        """Iterate stored facts as :class:`Atom` objects.

        With `pred` given, restricts to relations with that predicate
        name (any arity).
        """
        for (name, _arity), rows in self._facts.items():
            if pred is not None and name != pred:
                continue
            for args in rows:
                yield Atom(name, args)

    def sorted_atoms(self, pred=None):
        """Deterministically ordered facts, for reporting and tests."""
        atoms = list(self.iter_atoms(pred))
        atoms.sort(key=lambda a: (a.pred, tuple(term_sort_key(t) for t in a.args)))
        return atoms

    def copy(self):
        clone = FactStore()
        for sig, rows in self._facts.items():
            if rows:
                clone._facts[sig] = set(rows)
        return clone

    def overlay(self, written):
        """A copy that may only grow the relations of `written`.

        Those relations are copied; every other one, with the indexes
        built on it, is shared with this store.  This store stays
        unchanged as long as the copy only adds facts of `written`.
        """
        clone = FactStore()
        for sig, rows in self._facts.items():
            if rows:
                clone._facts[sig] = set(rows) if sig in written else rows
        # one C-level copy: a reader of this store may be indexing it
        clone._indexes = dict(self._indexes)
        for sig in written:
            clone._indexes.pop(sig, None)
        return clone

    def merge(self, other):
        """In-place union with another store; returns self."""
        for sig, rows in other._facts.items():
            self.add_rows(sig, rows)
        return self

    def difference_count(self, other):
        """Number of facts in self that are not in other."""
        missing = 0
        for sig, rows in self._facts.items():
            other_rows = other._facts.get(sig, ())
            missing += sum(1 for args in rows if args not in other_rows)
        return missing

    def same_facts(self, other):
        mine = {sig: rows for sig, rows in self._facts.items() if rows}
        theirs = {sig: rows for sig, rows in other._facts.items() if rows}
        return mine == theirs


def _file(index, key_of, rows):
    """Append each of `rows` to its bucket of `index`."""
    for args in rows:
        key = key_of(args)
        bucket = index.get(key)
        if bucket is None:
            index[key] = [args]
        else:
            bucket.append(args)
