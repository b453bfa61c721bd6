"""JRS007 positive fixture: unpicklable work at the pool boundary."""

import multiprocessing


def fan_out(items):
    def local_worker(item):
        return item * 2

    with multiprocessing.Pool(2) as pool:
        doubled = pool.map(lambda item: item * 2, items)
        tripled = pool.imap_unordered(local_worker, items)
        async_r = pool.apply_async(local_worker, (1,))
    return doubled, list(tripled), async_r


def sweep(pool, pairs):
    return pool.starmap(lambda a, b: a + b, pairs)


def warm_sweep(pool, items):
    return pool.submit(lambda item: item * 2, items)
