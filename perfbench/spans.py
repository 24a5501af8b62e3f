"""In-memory spans around calls to the library's public functions.

A :class:`Tracer` replaces chosen module attributes with timing wrappers
while it is installed, so a span opens whenever the program calls one of
those functions, whether the caller is the benchmark or another module of
the library.  Spans nest through a stack: a span's parent is the span that
was open when it started.  Counts are derived afterwards from the public
arguments and return values each wrapper hands to :meth:`Tracer.settle`,
so counting adds nothing to any span's time.
"""

import statistics
import time
from collections import Counter, defaultdict

# span record fields
NAME, START, END, PARENT, OP, RAISED = range(6)

LAYERS = ("collection", "permutations", "pbwt", "positional", "fm", "indexfile")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._pending = []
        self._patches = []

    def wrap(self, module, attr: str, name: str, count=None):
        """Time every call to ``module.attr`` as span ``name`` while installed.

        ``count(counts, args, kwargs, result)`` runs later, in :meth:`settle`,
        for calls that returned.
        """
        original = getattr(module, attr)
        spans, stack, pending = self.spans, self._stack, self._pending

        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                pending.append((count, args, kwargs, result))
            return result

        self._patches.append((module, attr, original, traced))

    def install(self):
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def settle(self):
        """Fold the counts of the calls made since the last settle into ``counts``."""
        for count, args, kwargs, result in self._pending:
            count(self.counts, args, kwargs, result)
        self._pending.clear()

    def write(self, path):
        """Write the spans as tab-separated lines, one per span, times in ns."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\traised\n")
            for span in self.spans:
                fh.write("\t".join(str(int(v)) if i else v for i, v in enumerate(span)) + "\n")


def durations(spans):
    """Per span: (duration, self time) in seconds; self time excludes direct children."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [((s[END] - s[START]) / 1e9, (s[END] - s[START] - child[i]) / 1e9)
            for i, s in enumerate(spans)]


def summarize(spans):
    """Group span times for the metric table.

    Spans with a negative op id belong to a set-up repetition, the others to
    an operation.  Returns ``(setup_by_name, op_by_name, setup_self,
    op_self)``: the median over set-up repetitions of each name's summed
    duration; each name's list of durations within operations; each layer's
    median set-up self time; each layer's total self time within operations.
    """
    setup_sums = defaultdict(Counter)
    setup_self = defaultdict(Counter)
    op_by_name = defaultdict(list)
    op_self = Counter()
    reps = set()
    for s, (dur, self_time) in zip(spans, durations(spans)):
        layer = s[NAME].split(".", 1)[0]
        if s[OP] < 0:
            reps.add(s[OP])
            setup_sums[s[NAME]][s[OP]] += dur
            setup_self[layer][s[OP]] += self_time
        else:
            op_by_name[s[NAME]].append(dur)
            op_self[layer] += self_time

    def median_over_reps(by_rep):
        return float(statistics.median([by_rep[r] for r in reps])) if reps else 0.0

    setup_by_name = {name: median_over_reps(by_rep) for name, by_rep in setup_sums.items()}
    setup_layer = {layer: median_over_reps(setup_self[layer]) for layer in LAYERS}
    return setup_by_name, op_by_name, setup_layer, op_self
