"""Dense-to-MoE architecture surgery toolkit.

Identifies redundant transformer layers from activation traces, fuses them
into sparse MoE layers, and ranks candidate depths with a first-principles
latency model, static-memory accounting, and a hardware-aware reward. A
built-in float64 toy transformer makes every step verifiable at desk scale.
"""

__version__ = "0.1.0"
