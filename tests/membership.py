"""What lies inside, counted the plain way: the tests' reference for ball
membership and for the features of a diagram alive at a scale."""

import numpy as np


def contains_many(ball, points):
    """Mask of the points inside the closed ball."""
    return ball.sq_distances(points) <= ball.radius**2


def persistent_betti(dg, r):
    """Number of features of a diagram alive at scale r: pairs with birth <= r < death."""
    b, d = dg.pairs[:, 0], dg.pairs[:, 1]
    return int(np.sum((b <= r) & (r < d)))
