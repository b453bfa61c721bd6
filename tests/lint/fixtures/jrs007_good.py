"""JRS007 negative fixture: module-scope callables only."""

import multiprocessing


def _worker(item):
    return item * 2


def _init(seed):
    return None


def _add(a, b):
    return a + b


def fan_out(items):
    with multiprocessing.Pool(
        2, initializer=_init, initargs=(7,)
    ) as pool:
        doubled = pool.map(_worker, items)
    return doubled


def sweep(pool, pairs):
    return pool.starmap(_add, pairs)


def warm_sweep(pool, spec, items):
    return pool.submit(spec, items)
