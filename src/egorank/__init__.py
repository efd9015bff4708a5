"""egorank: content-similarity influence ranking over an ego network.

Given an ego user's activity corpora and those of their interacted
network members, the pipeline classifies every document into one of ten
(category, sentiment) influence buckets, ranks members inside a bucket by
a frequency-and-similarity recommendation index, and selects the
top-most influenceable targets after removing default influencers.
"""

__version__ = "0.3.0"
