"""The in-process workloads: decoding, warming and the operation callables.

A workload object is built from the serialized operation list inside the
process that runs it; building it is the set-up that `setup_s` times.  The
constructor calls `tick` after each place or operation it has decoded, so
the worker can probe the machine's speed in between (speed.Clock).
`ops` is the round: a list of (kind, callable, argument) triples, run in
order.  `serialize` turns one output into canonical text, so outputs can be
compared byte for byte across rounds and between traced and untraced runs.
"""

import json


def warm(pf, place):
    """Fill the place's lazily built data by evaluating every variable."""
    for i in range(place.arity):
        x = pf.RatFunc.variable(place.field, place.arity, i)
        place.value(x)
        place.residue(x)


class Evaluate:
    def __init__(self, pf, spec, tick=lambda: None):
        self.pf = pf
        self.places, self.elems = [], []
        for obj, texts in zip(spec["places"], spec["elems"]):
            place = pf.place_from_json(obj)
            self.elems.append([pf.parse_expr(text, place.arity, place.field) for text in texts])
            warm(pf, place)
            self.places.append(place)
            tick()
        self.ops = []
        for op in spec["ops"]:
            kind, pi = op[0], op[1]
            if kind == "classify":
                self.ops.append((kind, self.classify, spec["places"][pi]))
            else:
                method = getattr(self.places[pi], kind)
                self.ops.append((kind, method, self.elems[pi][op[2]]))

    def classify(self, obj):
        return self.pf.place_from_json(obj).invariants()

    def serialize(self, out):
        if out is self.pf.INFINITY:
            return "infinity"
        return json.dumps(out.to_json(), sort_keys=True)

    @staticmethod
    def iterations(out):
        return 0


class Replace:
    def __init__(self, pf, spec, tick=lambda: None):
        self.pf = pf
        self.ops = []
        self.inputs = []
        for op in spec["ops"]:
            place = pf.place_from_json(op["place"])
            warm(pf, place)

            def parse(texts, place=place):
                return [pf.parse_expr(t, place.arity, place.field) for t in texts]

            shape = pf.TargetShape.from_json(op["shape"])
            if op["api"] == "witness":
                args = (place, parse(op["A"]), parse(op["B"]), shape)
                self.ops.append(("witness", self.witness, args))
            else:
                args = (place, parse(op["elems"]), shape)
                self.ops.append(("goodify", self.goodify, args))
            self.inputs.append(args)
            tick()

    def witness(self, args):
        return self.pf.density_witness(*args)

    def goodify(self, args):
        return self.pf.goodify(*args)

    def serialize(self, out):
        report = out.report()
        report["invariants"] = out.place.invariants().to_json()
        return json.dumps(report, sort_keys=True)

    @staticmethod
    def iterations(out):
        return out.iterations


WORKLOADS = {"evaluate": Evaluate, "replace": Replace}
