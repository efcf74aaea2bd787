"""End-to-end and per-layer benchmark of the FedProxVR reproduction.

See ``bench/README.md``; run with ``python -m bench run``.
"""
