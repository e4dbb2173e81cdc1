"""The package's public names are the layer modules' public names."""

import tagsplit
from tagsplit import costs, model, optimum, sim, traces

LAYERS = (model, optimum, sim, traces, costs)


def test_every_public_name_resolves_to_its_layers_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(tagsplit, name) is getattr(layer, name)


def test_public_names_are_the_union_of_the_layers():
    layer_names = [name for layer in LAYERS for name in layer.__all__]
    assert len(set(layer_names)) == len(layer_names)
    assert sorted(tagsplit.__all__) == sorted(layer_names)
