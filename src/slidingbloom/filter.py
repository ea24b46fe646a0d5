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

        # full scanner pass must fit inside the (c+2)*g steps a label
        # stays stale before reuse; 2 cells per step suffices except for
        # degenerate tiny geometries
        span = (params.c + 2) * params.g
        self._scan_width = max(2, -(-self._dict.capacity_cells // span))
        self._set_generation(0)

        # cost statistics count from here, or from the step of a load
        self._start_steps = 0
        self._ins_sum = 0
        self._ins_max = 0
        self._ins_max_nokick = 0
        self._queries = 0

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
        if type(x) is not int or not 0 <= x < self.params.u:
            self._check_element(x)
        d = self._dict
        h = self.hash
        stale = self._stale
        fp = ((h.a * x) % h.p) % h.range_size
        scan = self._scan_width
        d.scan_step(scan, stale)
        try:
            d.insert_or_update(fp, self.gen_label, stale)
        except InsertOverflow as exc:
            error = UnrecoverableOverflow(
                f"{exc}; an element is lost and the filter refuses further use",
                exc.fp, exc.tag,
            )
            self._dict = _Unusable(error)
            raise error from None
        cells = scan + d.last_op_cells
        kicks = d.last_op_kicks

        steps = self.steps + 1
        self.steps = steps
        if steps % self.params.g == 0:
            self._advance_label()

        self._ins_sum += cells
        if cells > self._ins_max:
            self._ins_max = cells
        if kicks == 0 and cells > self._ins_max_nokick:
            self._ins_max_nokick = cells

    def _advance_label(self) -> None:
        g_mod = self.params.gen_modulus
        label = (self.gen_label + 1) % g_mod
        self.gen_label = label
        stale = self._stale
        stale.discard(label)
        stale.add((label - self.params.c - 1) % g_mod)

    def query(self, x: int) -> bool:
        """True iff x is reported in the window. Never false for window elements."""
        if type(x) is not int or not 0 <= x < self.params.u:
            self._check_element(x)
        h = self.hash
        fp = ((h.a * x) % h.p) % h.range_size
        self._queries += 1
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
        """Touched cells since construction or load. The insert count is
        the steps taken since then; a query looks at one bucket, or at
        two when the dictionary counted a second probe."""
        inserts = self.steps - self._start_steps
        queries = self._queries
        second = self._dict.second_probes
        return CostReport(
            inserts=inserts,
            insert_cells_max=self._ins_max,
            insert_cells_max_no_kicks=self._ins_max_nokick,
            insert_cells_mean=(self._ins_sum / inserts) if inserts else 0.0,
            queries=queries,
            query_cells_max=(2 * BUCKET_SIZE if second else BUCKET_SIZE) if queries else 0,
            query_cells_mean=BUCKET_SIZE * (queries + second) / queries if queries else 0.0,
            max_kick_chain=self._dict.max_kick_chain,
            scan_width=self._scan_width,
        )

    @property
    def dictionary(self) -> Dictionary:
        return self._dict

    # -- persistence (implemented in snapshot.py) -------------------------------

    def save(self, target) -> None:
        from .snapshot import save_filter

        save_filter(self, target)

    @classmethod
    def load(cls, source) -> "SlidingFilter":
        from .snapshot import load_filter

        return load_filter(source)
