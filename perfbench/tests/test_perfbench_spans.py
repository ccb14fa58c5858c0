import pytest

import layers
from spans import Span, Target, Tracer, check_nesting, self_times, wrapped_names


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("root2", 10.0, 12.0, -1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert sum(self_times(spans)) == 12.0


def test_tracer_records_parents_from_nesting():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
    root = tracer.open("root")
    child = tracer.open("child")
    grandchild = tracer.open("grandchild")
    tracer.close(grandchild)
    tracer.close(child)
    tracer.close(root)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1]
    assert self_times(tracer.spans) == [2.0, 2.0, 1.0]
    assert check_nesting(tracer.spans) == []


def test_closing_out_of_order_raises():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_check_nesting_finds_a_child_outside_its_parent():
    spans = [Span("root", 0.0, 1.0, -1), Span("late", 0.5, 2.0, 0)]
    assert check_nesting(spans)


def test_timed_records_work_and_closes_on_error():
    tracer = Tracer(recording=True)
    assert tracer.timed("ok", lambda x: x * 2, 21, work=lambda a, k, out: out) == 42
    assert tracer.spans[0].work == 42.0
    with pytest.raises(ZeroDivisionError):
        tracer.timed("boom", lambda: 1 / 0)
    assert tracer.spans[1].end >= tracer.spans[1].start
    assert tracer._stack == []


def _originals():
    """Every package name that refers to a wrapped target, with its object."""
    import ibimpute.cli  # noqa: F401  (imports every module of the package)
    from spans import _owner, package_modules

    modules = package_modules()
    found = {}
    for target in layers.TARGETS:
        owner, name = _owner(modules, target)
        raw = owner.__dict__[name]
        found[(id(owner), name)] = (owner, name, raw)
        if not isinstance(owner, type):
            for module in modules:
                for attr, value in vars(module).items():
                    if value is raw:
                        found[(id(module), attr)] = (module, attr, raw)
    return found


def test_install_patches_every_import_site_and_restore_undoes_it():
    from ibimpute import cli, data, evaluation, training

    originals = _originals()
    apply_mask = data.apply_mask
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        for module in (data, training, cli, evaluation):
            assert module.apply_mask is not apply_mask
            assert module.apply_mask.__wrapped__ is apply_mask
        assert training.masked_error_sums is evaluation.masked_error_sums
        assert training.reparameterize.perfbench_wrapper
        for owner, name, raw in originals.values():
            assert owner.__dict__[name] is not raw
        assert wrapped_names()
    finally:
        tracer.restore()
    for owner, name, raw in originals.values():
        assert owner.__dict__[name] is raw, f"{owner}.{name} not restored"
    assert wrapped_names() == []


def test_wrapper_passes_through_when_not_recording():
    from ibimpute import rng

    tracer = Tracer()
    tracer.install([Target("rng", "SplitMix64.permutation", "rng.permutation")])
    try:
        perm = rng.SplitMix64(3).permutation(5)
        assert tracer.spans == []
        tracer.recording = True
        assert list(rng.SplitMix64(3).permutation(5)) == list(perm)
        assert [s.name for s in tracer.spans] == ["rng.permutation"]
    finally:
        tracer.restore()
