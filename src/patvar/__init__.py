"""Pattern-guided counterfactual data augmentation for active-learning text
classification: a token-level pattern DSL, pattern synthesis from labeled
examples, LLM-backed counterfactual generation with three-stage filtering,
and a simulated active-learning harness."""

__version__ = "0.1.0"
