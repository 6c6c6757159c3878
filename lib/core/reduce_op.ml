let gather_solution p ~sink ~sources =
  Collective.solve Collective.Sum (Platform.transpose p) ~source:sink
    ~targets:sources

let gather_throughput p ~sink ~sources =
  (gather_solution p ~sink ~sources).Collective.throughput

let reduce_throughput p ~sink ~sources =
  (Collective.solve Collective.Max (Platform.transpose p) ~source:sink
     ~targets:sources)
    .Collective.throughput
