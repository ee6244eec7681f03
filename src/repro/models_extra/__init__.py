"""Models and client libraries beyond the default hashed perceptron.

The ablation models (:mod:`.alt_models`, :mod:`.heavy_models`) are
reached by name through :func:`repro.core.models.create_model`, which
imports them on first use; :mod:`.multiclass` is a library over the
public client API.  Nothing here is imported by ``import repro.core``.
"""
