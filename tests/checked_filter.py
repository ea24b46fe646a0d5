"""A filter that checks its label invariants at every generation boundary.

``CheckedFilter`` behaves exactly like ``SlidingFilter`` and adds two
checks after each label advance: no cell may still carry the label just
handed out, and (at every 97th boundary) the active cells may not
exceed (c+1)*g. The stress driver, criterion 6 and the filter tests
build it in place of the plain filter.
"""

from slidingbloom import SlidingFilter

from cell_audit import tag_count


class LabelReuseViolation(AssertionError):
    """A generation label was reused while cells still carried it."""


class CheckedFilter(SlidingFilter):
    def _advance_label(self) -> None:
        super()._advance_label()
        label = self.gen_label
        tagged = tag_count(self.dictionary, label)
        if tagged:
            raise LabelReuseViolation(f"label {label} reused with {tagged} cells still tagged")
        if self.boundaries % 97 == 1:
            active = self.active_count()
            limit = (self.params.c + 1) * self.params.g
            if active > limit:
                raise AssertionError(f"active count {active} exceeds {limit}")


def is_active_tag(f: SlidingFilter, tag: int) -> bool:
    """The label formula: a tag is active iff it is at most c
    generations older than the current label."""
    return (f.gen_label - tag) % f.params.gen_modulus <= f.params.c
