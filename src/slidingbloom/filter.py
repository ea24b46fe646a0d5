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
the label guarantee rests on the scanner alone.

Queries take constant dictionary work and never answer 'No' for an
element inside the window. Elements must be ``int`` values in [0, u);
anything else is rejected before any state changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dictionary import Dictionary, InsertOverflow, never_stale
from .hashing import UniversalHash, new_hash
from .params import FilterParams, derive
from .prng import MASK64, derive_seed

DEFAULT_UNIVERSE = 1 << 64

# tiny dictionaries (a handful of buckets) can genuinely fail to host a
# legal element set; a floor on the element capacity keeps the cuckoo
# graph out of that regime at a few hundred bits of cost
MIN_DICT_ELEMENTS = 64

# overflow recovery: rebuild with a fresh placement seed at most this
# many times per insert before giving up and surfacing the error
MAX_REBUILDS_PER_INSERT = 3


class UnrecoverableOverflow(InsertOverflow):
    """Every reseeded rebuild after an insert overflow failed.

    The element the failed walk carried is in no cell, so the filter
    could answer No inside the window. It refuses further use: this is
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


class LabelReuseViolation(AssertionError):
    """Debug hook: a generation label was reused while cells still carried it."""


@dataclass(frozen=True)
class SpaceReport:
    """Notional bit footprint of a filter, itemized."""

    dictionary_bits: int
    gen_pos_bits: int
    gen_label_bits: int
    hash_bits: int
    counters_and_hash_bits: int
    total_bits: int
    dictionary: object  # DictSpaceReport


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
    rebuilds: int


class SlidingFilter:
    """Approximate membership over the last n stream elements."""

    def __init__(self, params: FilterParams, seed: int, debug: bool = False):
        """Build an empty filter.

        ``params`` must pass ``FilterParams.validate`` (``create`` derives
        them from n, m, epsilon and u). The fingerprint hash, the
        dictionary's placement and its cuckoo walk all derive from
        ``seed``, which is taken modulo 2**64. ``debug`` turns on the
        label-reuse and active-count checks at generation boundaries.
        """
        params.validate()
        self.params = params
        self.seed = seed & MASK64
        self.debug = debug

        self.hash: UniversalHash = new_hash(
            params.u, params.fp_range, derive_seed(seed, "fingerprint")
        )
        self.rebuilds = 0
        self._dict = self._new_dictionary("dictionary")

        self.steps = 0

        # full scanner pass must fit inside the (c+2)*g steps a label
        # stays stale before reuse; 2 cells per step suffices except for
        # degenerate tiny geometries
        span = (params.c + 2) * params.g
        self._scan_width = max(2, -(-self._dict.capacity_cells // span))
        self._set_generation(0, 0)

        self._ins_n = 0
        self._ins_sum = 0
        self._ins_max = 0
        self._ins_max_nokick = 0
        self._q_n = 0
        self._q_sum = 0
        self._q_max = 0
        self.boundaries = 0

    def _new_dictionary(self, seed_label: str) -> Dictionary:
        return Dictionary(
            element_capacity=max(self.params.dict_capacity, MIN_DICT_ELEMENTS),
            fp_range=self.params.fp_range,
            tag_bits=self.params.tag_bits,
            seed=derive_seed(self.seed, seed_label),
            tag_range=self.params.gen_modulus,
        )

    def restore(self, steps: int, rebuilds: int, cells) -> None:
        """Resume saved state in this freshly built filter.

        ``steps`` is the stream position, from which the generation
        position, boundary count and label follow; ``cells`` is the
        dictionary state (``Dictionary.to_bytes`` output). Raises
        ValueError, before anything changes, if the cells do not fit
        this filter's dictionary.
        """
        self._dict.restore(cells)
        self.steps = steps
        self.rebuilds = rebuilds
        self.boundaries, gen_pos = divmod(steps, self.params.g)
        self._set_generation(gen_pos, self.boundaries % self.params.gen_modulus)

    def _set_generation(self, gen_pos: int, gen_label: int) -> None:
        """Set the position inside the generation, in [0, g), and the
        current label, in [0, gen_modulus); recomputes the set of stale
        labels, those more than c generations old."""
        self.gen_pos = gen_pos
        self.gen_label = gen_label
        g_mod = self.params.gen_modulus
        self._stale = {t for t in range(g_mod) if (gen_label - t) % g_mod > self.params.c}

    @classmethod
    def create(cls, n: int, m, epsilon: float, u: int = DEFAULT_UNIVERSE,
               seed: int = 0, debug: bool = False) -> "SlidingFilter":
        return cls(derive(n, m, epsilon, u), seed, debug=debug)

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
            self._recover_overflow(exc)
            d = self._dict
        cells = scan + d.last_op_cells
        kicks = d.last_op_kicks

        self.steps += 1
        pos = self.gen_pos + 1
        if pos == self.params.g:
            self.gen_pos = 0
            self._advance_label()
        else:
            self.gen_pos = pos

        self._ins_n += 1
        self._ins_sum += cells
        if cells > self._ins_max:
            self._ins_max = cells
        if kicks == 0 and cells > self._ins_max_nokick:
            self._ins_max_nokick = cells

    def _recover_overflow(self, overflow: InsertOverflow) -> None:
        """Rehash into a reseeded dictionary after a failed cuckoo walk.

        The walk ended carrying one element that is in no cell (the new
        one or an element it displaced); it is reinserted with the
        surviving live cells (stale ones are dropped, which only helps).
        Deterministic: retry seeds derive from the master seed and the
        rebuild count. After MAX_REBUILDS_PER_INSERT consecutive
        failures the element stays lost, so the filter raises
        UnrecoverableOverflow now and on every later use.
        """
        stale = self._stale
        survivors = [(fp, tag) for _idx, fp, tag in self._dict.entries() if tag not in stale]
        if overflow.tag not in stale:
            survivors.append((overflow.fp, overflow.tag))
        for _ in range(MAX_REBUILDS_PER_INSERT):
            self.rebuilds += 1
            fresh = self._new_dictionary(f"dictionary-rebuild-{self.rebuilds}")
            try:
                for fp, tag in survivors:
                    fresh.insert_or_update(fp, tag, never_stale)
            except InsertOverflow:
                continue
            self._dict = fresh
            return
        error = UnrecoverableOverflow(
            f"insert still failing after {MAX_REBUILDS_PER_INSERT} reseeded rebuilds "
            f"(element capacity {self._dict.element_capacity}); an element is lost "
            f"and the filter refuses further use",
            overflow.fp, overflow.tag,
        )
        self._dict = _Unusable(error)
        raise error

    def _advance_label(self) -> None:
        g_mod = self.params.gen_modulus
        label = (self.gen_label + 1) % g_mod
        self.gen_label = label
        self.boundaries += 1
        stale = self._stale
        stale.discard(label)
        stale.add((label - self.params.c - 1) % g_mod)
        if self.debug and self._dict.tag_count(label):
            raise LabelReuseViolation(
                f"label {label} reused with {self._dict.tag_count(label)} cells still tagged"
            )
        if self.debug and self.boundaries % 97 == 1:
            active = self.active_count()
            limit = (self.params.c + 1) * self.params.g
            if active > limit:
                raise AssertionError(f"active count {active} exceeds {limit}")

    def query(self, x: int) -> bool:
        """True iff x is reported in the window. Never false for window elements."""
        if type(x) is not int or not 0 <= x < self.params.u:
            self._check_element(x)
        h = self.hash
        fp = ((h.a * x) % h.p) % h.range_size
        tag = self._dict.member(fp, self._stale)
        cells = self._dict.last_op_cells
        self._q_n += 1
        self._q_sum += cells
        if cells > self._q_max:
            self._q_max = cells
        return tag is not None

    # -- introspection ---------------------------------------------------------

    def is_active_tag(self, tag: int) -> bool:
        return tag not in self._stale

    def active_count(self) -> int:
        """Stored fingerprints whose tag is currently active."""
        d = self._dict
        return sum(d.tag_count(t) for t in range(self.params.gen_modulus)
                   if self.is_active_tag(t))

    def active_fingerprints(self):
        """Yield every stored fingerprint with an active tag (debug/census)."""
        for _idx, fp, tag in self._dict.entries():
            if self.is_active_tag(tag):
                yield fp

    def bits_used(self) -> SpaceReport:
        dict_report = self._dict.bits_used()
        gen_pos_bits = max(1, (self.params.g - 1).bit_length())
        gen_label_bits = max(1, (self.params.gen_modulus - 1).bit_length())
        hash_bits = 2 * self.hash.p.bit_length()
        aux = gen_pos_bits + gen_label_bits + hash_bits
        return SpaceReport(
            dictionary_bits=dict_report.total_bits,
            gen_pos_bits=gen_pos_bits,
            gen_label_bits=gen_label_bits,
            hash_bits=hash_bits,
            counters_and_hash_bits=aux,
            total_bits=dict_report.total_bits + aux,
            dictionary=dict_report,
        )

    def step_cost_stats(self) -> CostReport:
        return CostReport(
            inserts=self._ins_n,
            insert_cells_max=self._ins_max,
            insert_cells_max_no_kicks=self._ins_max_nokick,
            insert_cells_mean=(self._ins_sum / self._ins_n) if self._ins_n else 0.0,
            queries=self._q_n,
            query_cells_max=self._q_max,
            query_cells_mean=(self._q_sum / self._q_n) if self._q_n else 0.0,
            max_kick_chain=self._dict.max_kick_chain,
            scan_width=self._scan_width,
            rebuilds=self.rebuilds,
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
