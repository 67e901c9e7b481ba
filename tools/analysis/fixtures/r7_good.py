"""R7 fixture (good): every query goes through the engine facade."""


class FacadeController:
    def __init__(self, query_engine):
        self.query_engine = query_engine

    def decide(self, flow, switch):
        # The engine caches, coalesces, serves resident answers and
        # hooks invalidation — the one legitimate query path.
        src, dst = self.query_engine.query_both_ends_async(flow, from_node=switch)
        return src, dst

    def decide_async(self, flow):
        return self.query_engine.query_async(flow, "src")

    def single_end(self, flow):
        return self.query_engine.query_async(flow, "dst")
