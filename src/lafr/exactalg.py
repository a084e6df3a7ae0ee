"""Empty: the exact layer is :mod:`lafr.spectral`, which builds no polynomial.

``perfbench/tracer.py`` lists this layer in ``LAYERS`` and
``tests/test_tracer.py::test_tracer_layers_import`` imports every listed
layer, so the file stays until the tracer drops it."""
