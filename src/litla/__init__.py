"""litla: bibliographic knowledge-graph construction and literature-landscape
analytics (descriptive statistics, topics, citation and collaboration
networks, keyword link prediction).

The package imports none of its modules, so that ``litla.cli`` loads numpy
and the analysis modules only when a stage runs.
"""

__version__ = "0.1.0"
