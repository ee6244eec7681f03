"""Models beyond the default hashed perceptron.

The ablation models and static baselines (:mod:`.alt_models`) are
reached by name through :func:`repro.core.models.create_model`, which
imports them on first use.  Nothing here is imported by
``import repro.core``.
"""
