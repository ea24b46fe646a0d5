"""The sliding-window approximate membership filter.

The stream is split into generations of g consecutive positions, each
carrying one label from a counter that cycles modulo G = 2c+3.
Elements are stored in the cuckoo dictionary as fingerprint -> latest
generation label; an element is reported present exactly when its
stored label is among the c+1 most recent ones. Physical reclamation of
expired cells is decoupled from that logical expiry: a label stays
unused for c+2 generations after it expires. Every insert advances an
incremental scanner over (normally) two cells, so the scanner laps the
whole table within those (c+2)*g inserts and expired cells are
physically gone before their label is handed out again, keeping
per-operation work bounded. Inserts also reclaim the stale cells of a
bucket they need room in, so expired cells never block an insert, but
the label guarantee rests on the scanner alone. ``gen_pos`` and the
insert count follow from ``steps``.

An insert whose eviction search finds no room (``InsertOverflow``; not
seen at the 0.9 load target) is final: its element is in no cell, so
the filter raises ``UnrecoverableOverflow`` then and on every later use
rather than answer No inside the window.

Queries take constant dictionary work and never answer 'No' for an
element inside the window. Elements must be ``int`` values in [0, u);
anything else is rejected before any state changes.

A query remembers its element and fingerprint, and the dictionary its
probe, so an insert that follows a query of the same element (as
``dedup`` does for every item) pays for one hash and one probe: it
takes the fingerprint when the element is an ``int`` equal to the
remembered one, and the dictionary reuses the placement and the found
cell. An ``int`` subclass is neither remembered nor matched.

The filter keeps no cost counter but the step at construction or load:
``step_cost_stats`` takes the insert count from the steps taken since,
and everything else from the dictionary's counts of probes and
eviction searches, so a plain insert pays nothing for the figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dictionary import BUCKET_SIZE, Dictionary, InsertOverflow
from .hashing import UniversalHash, new_hash
from .params import FilterParams, derive
from .prng import MASK64, derive_seed

DEFAULT_UNIVERSE = 1 << 64

# tiny dictionaries (a handful of buckets) can genuinely fail to host a
# legal element set; a floor on the element capacity keeps the cuckoo
# graph out of that regime at a few hundred bits of cost
MIN_DICT_ELEMENTS = 64


class UnrecoverableOverflow(InsertOverflow):
    """An insert found no room for its element within the eviction
    search budget.

    The element being inserted is in no cell, so the filter could
    answer No inside the window. It refuses further use: this is
    raised by the failing insert and by every later insert, query, save
    or inspection of the filter.
    """


class _Unusable:
    """Stands in for the dictionary of a filter that lost an element.

    Any attribute access raises UnrecoverableOverflow, so every path
    that touches the dictionary refuses without a check of its own.
    """

    def __init__(self, error: UnrecoverableOverflow):
        self._error = error

    def __getattr__(self, name):
        error = self._error
        raise UnrecoverableOverflow(str(error), error.fp, error.tag)


@dataclass(frozen=True)
class SpaceReport:
    """Notional bit footprint of a filter: the dictionary's bits, those
    of the generation position and label counters and the hash's two
    words, and the dictionary's cell count and bits per cell."""

    total_bits: int
    dictionary_bits: int
    counters_and_hash_bits: int
    capacity_cells: int
    cell_bits: int


@dataclass(frozen=True)
class CostReport:
    """Touched-cell statistics gathered since construction (or load)."""

    inserts: int
    insert_cells_max: int
    insert_cells_max_no_kicks: int
    insert_cells_mean: float
    queries: int
    query_cells_max: int
    query_cells_mean: float
    max_kick_chain: int
    scan_width: int


class SlidingFilter:
    """Approximate membership over the last n stream elements."""

    def __init__(self, params: FilterParams, seed: int):
        """Build an empty filter.

        ``params`` is used as given: a ``FilterParams`` holds only fields
        derived from its inputs (``derive`` or ``create`` builds one from
        n, m, epsilon and u), so nothing is checked or derived again
        here. The fingerprint hash and the dictionary's placement both
        derive from ``seed``, which is taken modulo 2**64. Raises
        InvalidParams if the cell keys would need more than 64 bits.
        """
        self.params = params
        self.seed = seed & MASK64

        self.hash: UniversalHash = new_hash(
            params.u, params.fp_range, derive_seed(seed, "fingerprint")
        )
        self._dict = Dictionary(
            element_capacity=max(params.dict_capacity, MIN_DICT_ELEMENTS),
            fp_range=params.fp_range,
            tag_range=params.gen_modulus,
            seed=derive_seed(self.seed, "dictionary"),
        )

        self.steps = 0
        # the last query's element and its fingerprint, for an insert of
        # the same element; a function of the element, so never stale
        self._queried = (None, 0)

        # full scanner pass must fit inside the (c+2)*g steps a label
        # stays stale before reuse; 2 cells per step suffices except for
        # degenerate tiny geometries
        span = (params.c + 2) * params.g
        self._scan_width = max(2, -(-self._dict.capacity_cells // span))
        self._set_generation(0)

        # inserts count from here, or from the step of a load; the
        # dictionary counts everything else
        self._start_steps = 0

    def restore(self, steps: int, cells) -> None:
        """Resume saved state in this freshly built filter.

        ``steps`` is the stream position, from which the generation
        position and label follow; ``cells`` is the dictionary state
        (``Dictionary.to_buffers`` output, joined). Raises ValueError,
        before anything changes, if the cells do not fit this filter's
        dictionary.
        """
        self._dict.restore(cells)
        self.steps = self._start_steps = steps
        self._set_generation(self.boundaries % self.params.gen_modulus)

    def _set_generation(self, gen_label: int) -> None:
        """Set the current label, in [0, gen_modulus), and recompute the
        set of stale labels, those more than c generations old."""
        self.gen_label = gen_label
        g_mod = self.params.gen_modulus
        self._stale = {t for t in range(g_mod) if (gen_label - t) % g_mod > self.params.c}

    @classmethod
    def create(cls, n: int, m, epsilon: float, u: int = DEFAULT_UNIVERSE,
               seed: int = 0) -> "SlidingFilter":
        return cls(derive(n, m, epsilon, u), seed)

    # -- stream interface ----------------------------------------------------

    def _check_element(self, x) -> None:
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
            raise TypeError(f"element must be an int, got {type(x).__name__}")
        if not 0 <= x < self.params.u:
            raise ValueError(f"element {x} outside universe [0, {self.params.u})")

    def insert(self, x: int) -> None:
        # x equal to the last query's element, an in-range int, takes its
        # fp; the type is checked first, so an int subclass's __eq__ is
        # never called
        queried, fp = self._queried
        if type(x) is not int or x != queried:
            if type(x) is not int or not 0 <= x < self.params.u:
                self._check_element(x)
            h = self.hash
            fp = ((h.a * x) % h.p) % h.range_size
        d = self._dict
        stale = self._stale
        d.scan_step(self._scan_width, stale)
        try:
            d.insert_or_update(fp, self.gen_label, stale)
        except InsertOverflow as exc:
            error = UnrecoverableOverflow(
                f"{exc}; an element is lost and the filter refuses further use",
                exc.fp, exc.tag,
            )
            self._dict = _Unusable(error)
            raise error from None

        steps = self.steps + 1
        self.steps = steps
        if steps % self.params.g == 0:
            self._advance_label()

    def _advance_label(self) -> None:
        g_mod = self.params.gen_modulus
        label = (self.gen_label + 1) % g_mod
        self.gen_label = label
        stale = self._stale
        stale.discard(label)
        stale.add((label - self.params.c - 1) % g_mod)

    def query(self, x: int) -> bool:
        """True iff x is reported in the window. Never false for window elements."""
        queried = x
        if type(x) is not int or not 0 <= x < self.params.u:
            self._check_element(x)
            queried = None  # an int subclass: no insert compares with it
        h = self.hash
        fp = ((h.a * x) % h.p) % h.range_size
        # one attribute store, so queries running at the same time each
        # leave an element beside its own fingerprint
        self._queried = (queried, fp)
        return self._dict.member(fp, self._stale) is not None

    # -- introspection ---------------------------------------------------------

    @property
    def boundaries(self) -> int:
        """Generation boundaries crossed so far."""
        return self.steps // self.params.g

    @property
    def gen_pos(self) -> int:
        """Position inside the current generation, in [0, g): 0 right
        after a boundary."""
        return self.steps % self.params.g

    def active_count(self) -> int:
        """Stored fingerprints whose tag is currently active (one sweep of the cells)."""
        return self._dict.live_count(self._stale)

    def bits_used(self) -> SpaceReport:
        d = self._dict
        dictionary_bits = d.bits_used()
        aux = (max(1, (self.params.g - 1).bit_length()) + self.params.tag_bits
               + 2 * self.hash.p.bit_length())
        return SpaceReport(
            total_bits=dictionary_bits + aux,
            dictionary_bits=dictionary_bits,
            counters_and_hash_bits=aux,
            capacity_cells=d.capacity_cells,
            cell_bits=d.cell_bits,
        )

    def step_cost_stats(self) -> CostReport:
        """Touched cells since construction or load.

        The filter counts inserts as the steps taken since then; the
        dictionary counts the rest where a cost can vary. An insert
        touches its scan width plus two buckets, unless its eviction
        search found room, which the dictionary counts with the cells
        it touched; a search always moves a cell and a plain insert
        never does. A query looks at one bucket, or at two when the
        dictionary counted a second probe.
        """
        d = self._dict
        inserts = self.steps - self._start_steps
        plain = inserts - d.searches
        pair = 2 * BUCKET_SIZE if plain else 0
        scan = self._scan_width
        queries = d.probes
        second = d.second_probes
        return CostReport(
            inserts=inserts,
            insert_cells_max=scan + max(pair, d.max_search_cells) if inserts else 0,
            insert_cells_max_no_kicks=scan + pair if plain else 0,
            insert_cells_mean=(scan * inserts + pair * plain + d.search_cells) / max(inserts, 1),
            queries=queries,
            query_cells_max=(2 * BUCKET_SIZE if second else BUCKET_SIZE) if queries else 0,
            query_cells_mean=BUCKET_SIZE * (queries + second) / queries if queries else 0.0,
            max_kick_chain=d.max_kick_chain,
            scan_width=scan,
        )

    @property
    def dictionary(self) -> Dictionary:
        return self._dict

