/*
 * Compiled per-cycle step of repro.noc.fastmesh.FastMeshNetwork.
 *
 * fm_step advances every router of the mesh by one cycle, exactly as the
 * reference engine (repro.noc.mesh.MeshNetwork) does:
 *
 *   1. link-busy tick (multi-flit serialisation);
 *   2. head-of-line XY routing, with the fault deflection policy of
 *      repro.faults.route_with_faults around the links and FIFOs the
 *      fault masks mark (all clear when no fault schedule is armed);
 *   3. per-output round-robin switch allocation;
 *   4. credit backpressure against the occupancy at the start of the
 *      cycle (every decision is taken before any move commits);
 *   5. commit of every accepted move: ejection at the destination, or
 *      link traversal into the downstream FIFO (single-flit) or onto the
 *      link (multi-flit, handed back to Python as a departure record).
 *
 * fm_inject places a batch of single-flit packets into the local input
 * FIFOs, competing for space in argument order like sequential inject().
 *
 * Python owns every buffer.  It passes one int64 table: the buffer
 * addresses in the order of BUFFERS, then the mesh geometry, then the
 * counters fm_step reports (enum slot).  fm_layout and fm_table_slots
 * spell both lists out, so fastmesh can check them against
 * _KERNEL_BUFFERS, BUFFER_DTYPES and _TABLE_SLOTS before the first call.
 */
#include <stdint.h>

enum { LOCAL, NORTH, SOUTH, WEST, EAST, NPORTS };

/* Element types: i8 = int64, f8 = double, b1 = one-byte bool. */
typedef int64_t i8;
typedef double f8;
typedef uint8_t b1;

/* Table order of the buffers: fastmesh attribute name, element type. */
#define BUFFERS(X)                                                         \
    X(buf, i8) X(head, i8) X(count, i8) X(rr, i8) X(link_busy, i8)         \
    X(pkt_dst, i8) X(pkt_flits, i8) X(pkt_injected, i8) X(pkt_vertex, i8)  \
    X(pkt_value, f8) X(dlv_pidx, i8) X(dead, b1) X(stall, b1) X(moves, i8) \
    X(departed, i8) X(in_src, i8) X(in_dst, i8) X(in_vertex, i8)           \
    X(in_value, f8) X(in_ok, b1)

#define AS_ENUM(name, type) B_##name,
#define AS_TEXT(name, type) "_" #name ":" #type " "
enum buffer { BUFFERS(AS_ENUM) NBUFFERS };

/* Buffer `name` of table t, as an array of `type`. */
#define BUFFER(name, type) ((type *)t[B_##name])

enum slot {
    S_NODES = NBUFFERS, S_ROWS, S_COLS, S_DEPTH,
    S_DELIVERED, S_HOPS, S_LATENCY, S_STALLED, S_REROUTED, S_DEGRADED,
    S_DEPARTURES, S_OCCUPANCY,
    NSLOTS
};

/* Input port seen by the downstream router of each output port. */
static const int DOWN_IN[NPORTS] = {-1, SOUTH, NORTH, EAST, WEST};

int64_t fm_table_slots(void) { return NSLOTS; }

const char *fm_layout(void) { return BUFFERS(AS_TEXT); }

static int xy_route(int64_t node, int64_t dst, int64_t cols)
{
    const int64_t c = node % cols, dc = dst % cols;
    if (c < dc) return EAST;
    if (c > dc) return WEST;
    if (node < dst) return SOUTH; /* same column: compare rows */
    if (node > dst) return NORTH;
    return LOCAL;
}

static int64_t down_node(int64_t node, int out, int64_t cols)
{
    switch (out) {
    case NORTH: return node - cols;
    case SOUTH: return node + cols;
    case WEST: return node - 1;
    default: return node + 1;
    }
}

/* Output port for a packet whose XY link is dead: one hop along the
 * other axis, toward the destination row or the mesh interior; -1 when
 * there is no such axis or that link is dead too (the packet waits). */
static int deflect(int64_t node, int64_t dst, int out, const uint8_t *dead,
                   int64_t rows, int64_t cols)
{
    const int64_t r = node / cols, dr = dst / cols;
    int alt;
    if (out == EAST || out == WEST) {
        if (rows == 1) return -1;
        if (r != dr) alt = r < dr ? SOUTH : NORTH;
        else alt = r + 1 < rows ? SOUTH : NORTH;
    } else {
        if (cols == 1) return -1;
        alt = node % cols + 1 < cols ? EAST : WEST;
    }
    return dead[alt] ? -1 : alt;
}

int64_t fm_step(int64_t *t, int64_t cycle, int64_t ndlv)
{
    i8 *buf = BUFFER(buf, i8), *head = BUFFER(head, i8);
    i8 *count = BUFFER(count, i8), *rr = BUFFER(rr, i8);
    i8 *busy = BUFFER(link_busy, i8);
    const i8 *dst = BUFFER(pkt_dst, i8), *flits = BUFFER(pkt_flits, i8);
    const i8 *injected = BUFFER(pkt_injected, i8);
    i8 *dlv = BUFFER(dlv_pidx, i8), *moves = BUFFER(moves, i8);
    i8 *departed = BUFFER(departed, i8);
    const b1 *dead = BUFFER(dead, b1), *stall = BUFFER(stall, b1);
    const int64_t n = t[S_NODES], rows = t[S_ROWS], cols = t[S_COLS];
    const int64_t depth = t[S_DEPTH];
    int64_t nmoves = 0, occupancy = 0, stalled = 0, fault_seen = 0;

    for (int64_t i = 0; i < n * NPORTS; i++)
        busy[i] -= busy[i] > 0;

    /* Decide: every read below sees the state at the start of the cycle.
     * A move is recorded as (input FIFO * NPORTS + output) * 2, plus 1
     * when fault deflection took it off its XY port. */
    for (int64_t node = 0; node < n; node++) {
        const int64_t base = node * NPORTS;
        int requests[NPORTS] = {0}; /* per output: bitmask of inputs */
        int deflected = 0, any = 0; /* bitmask of inputs */
        for (int in = 0; in < NPORTS; in++) {
            const int64_t f = base + in;
            if (!count[f]) continue;
            occupancy += count[f];
            if (stall[f]) { /* frozen FIFO: no request */
                fault_seen = 1;
                continue;
            }
            const int64_t d = dst[buf[f * depth + head[f]]];
            int out = xy_route(node, d, cols);
            if (out != LOCAL && dead[base + out]) {
                fault_seen = 1;
                out = deflect(node, d, out, dead + base, rows, cols);
                if (out < 0) continue;
                deflected |= 1 << in;
            }
            requests[out] |= 1 << in;
            any = 1;
        }
        if (!any) continue;
        for (int out = 0; out < NPORTS; out++) {
            const int mask = requests[out];
            if (!mask || busy[base + out]) continue;
            int in = (int)rr[base + out]; /* first requester at/after rr */
            while (!(mask >> in & 1)) in = in + 1 == NPORTS ? 0 : in + 1;
            if (out != LOCAL
                && count[down_node(node, out, cols) * NPORTS + DOWN_IN[out]]
                       >= depth) {
                stalled++; /* granted, but no downstream credit */
                continue;
            }
            moves[nmoves++] =
                ((base + in) * NPORTS + out) * 2 + (deflected >> in & 1);
        }
    }

    /* Commit, in (node, output port) order. */
    int64_t delivered = 0, hops = 0, latency = 0, rerouted = 0;
    int64_t departures = 0;
    for (int64_t k = 0; k < nmoves; k++) {
        const int64_t move = moves[k] / 2;
        const int out = (int)(move % NPORTS);
        const int64_t f = move / NPORTS, node = f / NPORTS;
        const int64_t h = head[f], pidx = buf[f * depth + h];
        head[f] = h + 1 == depth ? 0 : h + 1;
        count[f]--;
        rr[node * NPORTS + out] = (f % NPORTS + 1) % NPORTS;
        const int64_t serial = flits[pidx] > 1 ? flits[pidx] - 1 : 0;
        if (out == LOCAL) {
            dlv[ndlv + delivered++] = pidx;
            latency += cycle + serial - injected[pidx];
            /* +1: the counter ticks at the start of the next cycle */
            if (serial) busy[node * NPORTS] = serial + 1;
            continue;
        }
        hops++;
        rerouted += moves[k] % 2;
        const int64_t down = down_node(node, out, cols);
        const int64_t df = down * NPORTS + DOWN_IN[out];
        if (serial) { /* store-and-forward: lands once fully serialised */
            busy[node * NPORTS + out] = serial + 1;
            int64_t *rec = departed + 4 * departures++;
            rec[0] = cycle + serial;
            rec[1] = down;
            rec[2] = DOWN_IN[out];
            rec[3] = pidx;
        } else {
            buf[df * depth + (head[df] + count[df]) % depth] = pidx;
            count[df]++;
        }
    }

    t[S_DELIVERED] = delivered;
    t[S_HOPS] = hops;
    t[S_LATENCY] = latency;
    t[S_STALLED] = stalled;
    t[S_REROUTED] = rerouted;
    t[S_DEGRADED] = fault_seen;
    t[S_DEPARTURES] = departures;
    t[S_OCCUPANCY] = occupancy - delivered - departures;
    return delivered;
}

/* Returns the number of accepted packets, or -1 - i when entry i names a
 * node outside the mesh (checked for every entry before any write). */
int64_t fm_inject(int64_t *t, int64_t m, int64_t cycle, int64_t base)
{
    i8 *buf = BUFFER(buf, i8), *head = BUFFER(head, i8);
    i8 *count = BUFFER(count, i8);
    i8 *dst = BUFFER(pkt_dst, i8), *flits = BUFFER(pkt_flits, i8);
    i8 *injected = BUFFER(pkt_injected, i8);
    i8 *vertex = BUFFER(pkt_vertex, i8);
    f8 *value = BUFFER(pkt_value, f8);
    const i8 *in_src = BUFFER(in_src, i8), *in_dst = BUFFER(in_dst, i8);
    const i8 *in_vertex = BUFFER(in_vertex, i8);
    const f8 *in_value = BUFFER(in_value, f8);
    b1 *ok = BUFFER(in_ok, b1);
    const int64_t n = t[S_NODES], depth = t[S_DEPTH];
    int64_t accepted = 0;

    for (int64_t i = 0; i < m; i++)
        if (in_src[i] < 0 || in_src[i] >= n || in_dst[i] < 0 || in_dst[i] >= n)
            return -1 - i;
    for (int64_t i = 0; i < m; i++) {
        const int64_t f = in_src[i] * NPORTS; /* LOCAL input FIFO */
        ok[i] = count[f] < depth;
        if (!ok[i]) continue;
        const int64_t pidx = base + accepted++;
        buf[f * depth + (head[f] + count[f]) % depth] = pidx;
        count[f]++;
        dst[pidx] = in_dst[i];
        flits[pidx] = 1;
        injected[pidx] = cycle;
        vertex[pidx] = in_vertex[i];
        value[pidx] = in_value[i];
    }
    return accepted;
}
