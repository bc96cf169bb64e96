"""The benchmark's traced run wraps each layer's public functions where they
are looked up (perfbench/measure.py LAYERS).  Every such name must stay
defined in its owner's own namespace, or ``--trace 1`` fails on it."""

from perfbench.measure import LAYERS


def test_every_traced_layer_is_defined_where_it_is_patched():
    missing = [f"{getattr(t[0], '__name__', t[0])}.{t[1]}" for t in LAYERS
               if t[1] not in vars(t[0])]
    assert LAYERS and not missing, missing
