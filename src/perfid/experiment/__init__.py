"""Training loop, evaluation metrics, and the three study harnesses."""
