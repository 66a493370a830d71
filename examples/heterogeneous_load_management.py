"""Range extension on heterogeneous edge servers (paper Section V-B).

Edge servers are heterogeneous: some switches host a single
small-capacity server, others several large ones.  This example shows
the paper's range-extension mechanism end to end:

1. a small server approaches capacity;
2. its switch asks the controller to extend its management range;
3. the controller redirects new placements to the neighbor's server
   with the most remaining capacity (flow-entry rewrite, Tables I/II);
4. retrieval requests fork to both locations and still find everything;
5. when load drains, the extension is retracted and the redirected
   items migrate home.

Run with::

    python examples/heterogeneous_load_management.py
"""

import numpy as np

from repro import GredNetwork, EdgeServer, brite_waxman_graph
from repro.edge import StorageFull
from repro.hashing import server_index

NUM_SWITCHES = 12


def build_network():
    rng = np.random.default_rng(11)
    topology, _ = brite_waxman_graph(NUM_SWITCHES, min_degree=2, rng=rng)
    # Heterogeneous deployment: switch 0 hosts one tiny server; the
    # rest host two large ones.
    server_map = {0: [EdgeServer(switch=0, serial=0, capacity=25)]}
    for switch in topology.nodes():
        if switch == 0:
            continue
        server_map[switch] = [
            EdgeServer(switch=switch, serial=s, capacity=10_000)
            for s in range(2)
        ]
    return GredNetwork(topology, server_map, cvt_iterations=30, seed=0)


def main() -> None:
    net = build_network()
    tiny = net.server(0, 0)
    rng = np.random.default_rng(5)
    switches = net.switch_ids()

    # Fill the network until the tiny server is nearly full.
    placed = []
    i = 0
    while tiny.load < tiny.capacity - 2:
        data_id = f"record-{i}"
        i += 1
        entry = switches[int(rng.integers(0, len(switches)))]
        try:
            net.place(data_id, payload=i, entry_switch=entry)
            placed.append(data_id)
        except StorageFull:
            break
    print(f"placed {len(placed)} records; tiny server at "
          f"{tiny.load}/{tiny.capacity}")

    # The upper layer notices the server is nearly full and the switch
    # requests a range extension from the controller.
    net.extend_range(0, 0)
    entry_rule = net.controller.switches[0].table.extension_for(0)
    print(f"range extended: switch 0 serial 0 -> switch "
          f"{entry_rule.target_switch} serial {entry_rule.target_serial}")

    # Keep placing; records hashed to the tiny server now land on the
    # takeover server instead of overflowing.
    redirected = 0
    for j in range(2000):
        data_id = f"overflow-{j}"
        entry = switches[int(rng.integers(0, len(switches)))]
        record = net.place(data_id, payload=j, entry_switch=entry).primary
        placed.append(data_id)
        if record.extended:
            redirected += 1
    print(f"placed 2000 more records; {redirected} redirected by the "
          f"extension; tiny server still at {tiny.load}/{tiny.capacity}")

    # Retrieval forks to both candidate servers and finds everything.
    missing = sum(
        0 if net.retrieve(d, entry_switch=1).found else 1
        for d in placed
    )
    print(f"retrieval check: {len(placed) - missing}/{len(placed)} "
          f"records found")
    assert missing == 0

    # A retraction attempt while the tiny server is still nearly full is
    # refused: the paper only removes the extension entries once all the
    # redirected data fits back home.
    try:
        net.retract_range(0, 0)
        raise AssertionError("retraction should have been refused")
    except Exception as exc:
        print(f"early retraction refused: {exc}")

    # Load drains: most of the records that hash to the tiny server
    # expire (invalidated or migrated to the cloud, as the paper puts
    # it) — wherever they are currently stored.
    target = net.server(entry_rule.target_switch, entry_rule.target_serial)
    redirected_home = [
        d for d in target.stored_ids()
        if net.destination_switch(d) == 0
        and server_index(d, len(net.server_map[0])) == 0
    ]
    drained = 0
    # All but 5 of the tiny server's own records expire...
    for data_id in list(tiny.stored_ids())[5:]:
        net.delete(data_id)
        placed.remove(data_id)
        drained += 1
    # ...and all but 10 of the redirected ones.
    for data_id in redirected_home[10:]:
        net.delete(data_id)
        placed.remove(data_id)
        drained += 1
    print(f"{drained} tiny-server records expired "
          f"(tiny server now {tiny.load}/{tiny.capacity})")

    # Retract the extension: redirected records migrate home.
    moved = net.retract_range(0, 0)
    print(f"extension retracted; {moved} records migrated back home")
    missing = sum(
        0 if net.retrieve(d, entry_switch=1).found else 1
        for d in placed
    )
    assert missing == 0
    print(f"final check: all {len(placed)} records retrievable; tiny "
          f"server at {tiny.load}/{tiny.capacity}")


if __name__ == "__main__":
    main()
