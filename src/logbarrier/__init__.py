"""Log-barrier continuation for feasible sets that are convex even when
their defining inequalities are not concave, with KKT certificates and
numerical checks of the hypotheses behind them."""

__version__ = "0.1.0"
