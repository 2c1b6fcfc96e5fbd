/*
 * Compiled cycle loops of the vectorized engines.
 *
 * fm_step advances every router of a repro.noc.fastmesh.FastMeshNetwork
 * by one cycle, exactly as the reference engine (repro.noc.mesh.
 * MeshNetwork) does.  Every packet is a single flit, and a link moves
 * one packet per cycle:
 *
 *   1. head-of-line XY routing, with the fault deflection policy of
 *      repro.faults.route_with_faults around the links and FIFOs the
 *      fault masks mark (all clear when no fault schedule is armed);
 *   2. per-output round-robin switch allocation;
 *   3. credit backpressure against the occupancy at the start of the
 *      cycle (every decision is taken before any move commits);
 *   4. commit of every accepted move: ejection at the destination, or
 *      link traversal into the downstream FIFO.
 *
 * fs_run advances a scatter phase of repro.core.fastsim, cycle by cycle,
 * exactly as the reference CycleAccurateScalaGraph._scatter_phase does:
 * dispatch with aggregation offer, RU egress, one mesh step (the same
 * step fm_step runs) and SPD retire, until the phase drains or the cycle
 * the caller names.  Each row's dispatcher takes its line inside the
 * loop, from a cursor over its vertex queue, so a dispatcher that stalls
 * is one counter there.  No decision in a phase reads a value, so fs_run
 * carries none: a register, an out queue entry, a packet and an SPD
 * queue entry each carry a partial id, and fs_fold computes the values
 * once the phase has drained (see "The fold").
 *
 * Python owns every buffer.  It passes int64 tables, each declared once
 * here by one X-macro (MESH_TABLE, PHASE_TABLE): every buffer's address
 * with its element type, in the order listed, then every scalar slot.
 * The same macro generates the C enums, the buffers' element types
 * (BUFFER(name) and PHASE(name) are typed by the declaration alone)
 * and the layout strings fm_layout and fs_layout, from which
 * repro.noc.meshkernel maps each name to its position; fastmesh and
 * fastsim check their buffer dtypes against them, then bind buffers in
 * the listed order and set and read slots by name.  The phase's
 * per-edge id buffers hold int32 (edge positions, PE ids, vertex and
 * partial ids: fastsim refuses a phase of 2^31 or more updates or
 * vertices), so every store into one narrows by an explicit cast; the
 * graph's destinations and every mesh, register-array, per-PE and
 * per-vertex id buffer hold int64.
 */
#define _POSIX_C_SOURCE 199309L /* clock_gettime under -std=c99 */
#include <stdint.h>
#include <time.h>

enum { LOCAL, NORTH, SOUTH, WEST, EAST, NPORTS };

/* Element types: i8 = int64, i4 = int32, f8 = double, b1 = one-byte
 * bool. */
typedef int64_t i8;
typedef int32_t i4;
typedef double f8;
typedef uint8_t b1;

/* The mesh table: fastmesh's buffers (attribute name without its
 * leading underscore, element type), then the geometry fastmesh sets
 * and the counts of the last step. */
#define MESH_TABLE(BUF, SLOT)                                              \
    BUF(buf, i8) BUF(head, i8) BUF(count, i8) BUF(rr, i8)                  \
    BUF(pkt_dst, i8) BUF(pkt_injected, i8) BUF(pkt_vertex, i8)             \
    BUF(pkt_pid, i8) BUF(dlv_pidx, i8) BUF(dead, b1) BUF(stall, b1)        \
    BUF(moves, i8)                                                         \
    SLOT(NODES) SLOT(ROWS) SLOT(COLS) SLOT(DEPTH)                          \
    SLOT(DELIVERED) SLOT(HOPS) SLOT(LATENCY) SLOT(STALLED) SLOT(REROUTED)  \
    SLOT(DEGRADED) SLOT(OCCUPANCY)

#define MESH_ENUM(name, type) B_##name,
#define MESH_SLOT_ENUM(name) S_##name,
#define MESH_TYPE(name, type) typedef type B_##name##_t;
#define MESH_TEXT(name, type) "_" #name ":" #type " "
#define NO_SLOT(name)
#define SLOT_TEXT(name) #name " "
enum mesh_entry { MESH_TABLE(MESH_ENUM, MESH_SLOT_ENUM) };
MESH_TABLE(MESH_TYPE, NO_SLOT)

/* Buffer `name` of mesh table t, as an array of its element type. */
#define BUFFER(name) ((B_##name##_t *)t[B_##name])

/* Input port seen by the downstream router of each output port. */
static const int DOWN_IN[NPORTS] = {-1, SOUTH, NORTH, EAST, WEST};

const char *fm_layout(void) { return MESH_TABLE(MESH_TEXT, SLOT_TEXT); }

/* XY output port at node (column c) for a packet to dst (column dc). */
static int xy_route(int64_t node, int64_t c, int64_t dst, int64_t dc)
{
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
static int deflect(int64_t node, int64_t c, int64_t dst, int out,
                   const uint8_t *dead, int64_t rows, int64_t cols)
{
    const int64_t r = node / cols, dr = dst / cols;
    int alt;
    if (out == EAST || out == WEST) {
        if (rows == 1) return -1;
        if (r != dr) alt = r < dr ? SOUTH : NORTH;
        else alt = r + 1 < rows ? SOUTH : NORTH;
    } else {
        if (cols == 1) return -1;
        alt = c + 1 < cols ? EAST : WEST;
    }
    return dead[alt] ? -1 : alt;
}

/* Ring slot after the last of count entries from head: (head + count)
 * % depth, for count <= depth. */
static int64_t tail_slot(int64_t head, int64_t count, int64_t depth)
{
    const int64_t at = head + count;
    return at >= depth ? at - depth : at;
}

static int64_t mesh_step(int64_t *t, int64_t cycle, int64_t ndlv)
{
    i8 *buf = BUFFER(buf), *head = BUFFER(head);
    i8 *count = BUFFER(count), *rr = BUFFER(rr);
    const i8 *dst = BUFFER(pkt_dst), *injected = BUFFER(pkt_injected);
    i8 *dlv = BUFFER(dlv_pidx), *moves = BUFFER(moves);
    const b1 *dead = BUFFER(dead), *stall = BUFFER(stall);
    const int64_t n = t[S_NODES], rows = t[S_ROWS], cols = t[S_COLS];
    const int64_t depth = t[S_DEPTH];
    /* Node indices fit 32 bits, whose divide is far cheaper. */
    const uint32_t ucols = (uint32_t)cols;
    int64_t nmoves = 0, occupancy = 0, stalled = 0, fault_seen = 0;

    /* Decide: every read below sees the state at the start of the cycle.
     * A move is recorded as (input FIFO * NPORTS + output) * 2, plus 1
     * when fault deflection took it off its XY port.  c is node's
     * column. */
    for (int64_t node = 0, c = 0; node < n;
         node++, c = c + 1 == cols ? 0 : c + 1) {
        const int64_t base = node * NPORTS;
        unsigned requests[NPORTS] = {0}; /* per output: bitmask of inputs */
        int deflected = 0, any = 0;      /* bitmask of inputs */
        for (int in = 0; in < NPORTS; in++) {
            const int64_t f = base + in;
            if (!count[f]) continue;
            occupancy += count[f];
            if (stall[f]) { /* frozen FIFO: no request */
                fault_seen = 1;
                continue;
            }
            const int64_t d = dst[buf[f * depth + head[f]]];
            int out = xy_route(node, c, d, (int64_t)((uint32_t)d % ucols));
            if (out != LOCAL && dead[base + out]) {
                fault_seen = 1;
                out = deflect(node, c, d, out, dead + base, rows, cols);
                if (out < 0) continue;
                deflected |= 1 << in;
            }
            requests[out] |= 1u << in;
            any = 1;
        }
        if (!any) continue;
        for (int out = 0; out < NPORTS; out++) {
            const unsigned mask = requests[out];
            if (!mask) continue;
            /* The first requester at or after rr: rotate rr to bit 0,
             * then take the lowest set bit. */
            const int at = (int)rr[base + out];
            const unsigned turn =
                (mask >> at | mask << (NPORTS - at)) & ((1u << NPORTS) - 1);
            int in = at + __builtin_ctz(turn);
            if (in >= NPORTS) in -= NPORTS;
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
    for (int64_t k = 0; k < nmoves; k++) {
        const int64_t move = moves[k] / 2;
        const int out = (int)(move % NPORTS);
        const int64_t f = move / NPORTS, node = f / NPORTS;
        const int64_t h = head[f], pidx = buf[f * depth + h];
        head[f] = h + 1 == depth ? 0 : h + 1;
        count[f]--;
        rr[node * NPORTS + out] = (f % NPORTS + 1) % NPORTS;
        if (out == LOCAL) {
            dlv[ndlv + delivered++] = pidx;
            latency += cycle - injected[pidx];
            continue;
        }
        hops++;
        rerouted += moves[k] % 2;
        const int64_t df = down_node(node, out, cols) * NPORTS + DOWN_IN[out];
        buf[df * depth + tail_slot(head[df], count[df], depth)] = pidx;
        count[df]++;
    }

    t[S_DELIVERED] = delivered;
    t[S_HOPS] = hops;
    t[S_LATENCY] = latency;
    t[S_STALLED] = stalled;
    t[S_REROUTED] = rerouted;
    t[S_DEGRADED] = fault_seen;
    t[S_OCCUPANCY] = occupancy - delivered;
    return delivered;
}

int64_t fm_step(int64_t *t, int64_t cycle, int64_t ndlv)
{
    return mesh_step(t, cycle, ndlv);
}

/* Queue packet pidx (src -> dst, carrying vertex and partial id pid) in
 * node src's local input FIFO; 0 when that FIFO is full. */
static int place(int64_t *t, int64_t pidx, int64_t src, int64_t dst,
                 i8 vertex, i8 pid, int64_t cycle)
{
    i8 *buf = BUFFER(buf), *head = BUFFER(head);
    i8 *count = BUFFER(count);
    const int64_t depth = t[S_DEPTH], f = src * NPORTS; /* LOCAL FIFO */
    if (count[f] >= depth) return 0;
    buf[f * depth + tail_slot(head[f], count[f], depth)] = pidx;
    count[f]++;
    BUFFER(pkt_dst)[pidx] = dst;
    BUFFER(pkt_injected)[pidx] = cycle;
    BUFFER(pkt_vertex)[pidx] = vertex;
    BUFFER(pkt_pid)[pidx] = pid;
    return 1;
}

/* ------------------------------------------------------------------ */
/* The scatter phase                                                   */
/* ------------------------------------------------------------------ */

/* The phase table: fastsim's buffers (attribute name, element type),
 * then its scalar slots.  The per-edge id buffers are int32 (exec_pe,
 * edges, d_edge, d_pid and the out and SPD queues' vid and pid) but
 * dst, the graph's int64 destinations.
 *   exec_pe, dst, edges  each edge's execution PE and destination, and
 *                        the edges sorted stably by the vertex that
 *                        streams them (the row dispatchers' queues): the
 *                        caller's arrays, read in place;
 *   group_start, _stop   each vertex group's [start, stop) in edges, the
 *                        groups in row order; dispatch advances the start
 *                        of a group that a full line split;
 *   row_end, row_group   each row's end in the group list and its cursor,
 *                        its next group (the row is busy while
 *                        row_group < row_end);
 *   d_edge, d_pid        each dispatched update's edge and partial id, in
 *                        dispatch order (fs_run);
 *   values, partial      the updates' values, one per edge in the
 *                        caller's order (read through d_edge), and one
 *                        slot per partial (fs_fold);
 *   home                 each vertex's home PE;
 *   pe_stall             PEs stalled in the current fault window;
 *   vid .. emitted       every PE's register array, (PE, column, stage)
 *                        registers (vid -1 = empty; pid, the partial
 *                        each register holds), and its ledger, as
 *                        repro.noc.aggregation.AggregationPipeline keeps
 *                        them;
 *   out_*, spd_*         each PE's egress and SPD queue of (vertex,
 *                        partial id): one slice per PE ending at
 *                        *_end[pe], live in [head, tail);
 *   free_pkts            mesh packet indices not in flight (a stack);
 *   vtemp, touched       the phase's reduced values and touched marks
 *                        (fs_fold).
 * The slots: set up by Python once per phase, MESH (the mesh's table),
 * STAGES and COLUMNS (COLUMNS 0 means no register array), REDUCE (0
 * for np.add, 1 for np.minimum, 2 for np.maximum), WINDOW (the most
 * vertex groups one line draws from), MAX_CYCLES and PROFILE; carried
 * from call to call, the cycle, the free packet indices, the partial
 * ids issued and the updates dispatched; then the counts of the last
 * call, which fs_run zeroes first: CycleStats (STALL_DEGRADED counts
 * the cycles a stalled PE held work while the mesh met no fault), then
 * MeshStats, then the nanoseconds of each stage when PROFILE is set. */
#define PHASE_TABLE(BUF, SLOT)                                             \
    BUF(exec_pe, i4) BUF(dst, i8) BUF(edges, i4) BUF(group_start, i8)      \
    BUF(group_stop, i8) BUF(row_end, i8) BUF(row_group, i8)                \
    BUF(d_edge, i4) BUF(d_pid, i4) BUF(values, f8) BUF(partial, f8)        \
    BUF(home, i8) BUF(pe_stall, b1) BUF(vid, i8) BUF(pid, i8) BUF(occ, i8) \
    BUF(rr, i8) BUF(offered, i8) BUF(coalesced, i8) BUF(stored, i8)        \
    BUF(rejected, i8) BUF(emitted, i8) BUF(out_end, i8) BUF(out_head, i8)  \
    BUF(out_tail, i8) BUF(out_vid, i4) BUF(out_pid, i4) BUF(spd_end, i8)   \
    BUF(spd_head, i8) BUF(spd_tail, i8) BUF(spd_vid, i4) BUF(spd_pid, i4)  \
    BUF(free_pkts, i8) BUF(vtemp, f8) BUF(touched, b1)                     \
    SLOT(MESH) SLOT(STAGES) SLOT(COLUMNS) SLOT(REDUCE) SLOT(WINDOW)        \
    SLOT(MAX_CYCLES) SLOT(PROFILE)                                         \
    SLOT(CYCLE) SLOT(FREE) SLOT(PARTIALS) SLOT(DISPATCHED)                 \
    SLOT(DISPATCH_LINES) SLOT(COALESCED) SLOT(SPD_REDUCES)                 \
    SLOT(STALL_DEGRADED) SLOT(STEPS) SLOT(INJECTED) SLOT(DELIVERED)        \
    SLOT(HOPS) SLOT(LATENCY) SLOT(STALLED) SLOT(REROUTED)                  \
    SLOT(MESH_DEGRADED) SLOT(PEAK) SLOT(OCCUPANCY) SLOT(NS_DISPATCH)       \
    SLOT(NS_EGRESS) SLOT(NS_STEP) SLOT(NS_RETIRE)

#define PHASE_ENUM(name, type) P_##name,
#define PHASE_SLOT_ENUM(name) Q_##name,
#define PHASE_TYPE(name, type) typedef type P_##name##_t;
#define PHASE_TEXT(name, type) #name ":" #type " "
enum phase_entry { PHASE_TABLE(PHASE_ENUM, PHASE_SLOT_ENUM) PHASE_ENTRIES };
PHASE_TABLE(PHASE_TYPE, NO_SLOT)

/* Buffer `name` of phase table p, as an array of its element type. */
#define PHASE(name) ((P_##name##_t *)p[P_##name])

/* fs_run's results: stopped at the named cycle, drained, ran past
 * MAX_CYCLES, or found a queue or register array inconsistent. */
enum { RUNNING, DRAINED, OVERRUN, CORRUPT };

const char *fs_layout(void) { return PHASE_TABLE(PHASE_TEXT, SLOT_TEXT); }

struct queue {
    const i8 *end;
    i8 *head, *tail;
    i4 *vid, *pid;
};

struct regs {
    i8 *vid, *pid, *occ, *rr, *offered, *coalesced, *stored, *rejected;
    i8 *emitted;
    int64_t stages, columns;
};

/* Append (vertex, pid) to PE pe's queue; 0 when its slice is full. */
static int push(struct queue *q, int64_t pe, i8 vertex, i8 pid)
{
    const int64_t at = q->tail[pe];
    if (at >= q->end[pe]) return 0;
    q->vid[at] = (i4)vertex;
    q->pid[at] = (i4)pid;
    q->tail[pe] = at + 1;
    return 1;
}

/* AggregationPipeline.offer on PE pe's register array.  An update that
 * matches a register joins that register's partial.  One stored in an
 * empty register starts partial `fresh`; so does one that meets a full
 * column without a match, which evicts the column's stage-0 register
 * into the out queue, shifts up and stores the update last (the ledger
 * counts that as an emit and a second offer).  Returns the update's
 * partial id, or -1 when the out queue overflowed. */
static i8 offer(struct regs *r, struct queue *out, int64_t pe, i8 vertex,
                i8 fresh)
{
    const int64_t stages = r->stages;
    const int64_t at = (pe * r->columns + vertex % r->columns) * stages;
    i8 *cv = r->vid + at, *cp = r->pid + at;
    r->offered[pe]++;
    for (int64_t s = 0; s < stages; s++) {
        if (cv[s] == -1) {
            cv[s] = vertex;
            cp[s] = fresh;
            r->stored[pe]++;
            r->occ[pe]++;
            return fresh;
        }
        if (cv[s] == vertex) {
            r->coalesced[pe]++;
            return cp[s];
        }
    }
    if (!push(out, pe, cv[0], cp[0])) return -1;
    r->rejected[pe]++;
    r->emitted[pe]++;
    r->offered[pe]++;
    r->stored[pe]++;
    for (int64_t s = 0; s + 1 < stages; s++) {
        cv[s] = cv[s + 1];
        cp[s] = cp[s + 1];
    }
    cv[stages - 1] = vertex;
    cp[stages - 1] = fresh;
    return fresh;
}

/* AggregationPipeline.emit(column=None) on PE pe: pop the stage-0
 * register of its next live column in round-robin order and shift that
 * column up.  Returns 0, or -1 when no column is live. */
static int emit(struct regs *r, int64_t pe, i8 *vertex, i8 *pid)
{
    const int64_t columns = r->columns, stages = r->stages;
    int64_t col = r->rr[pe];
    for (int64_t k = 0; r->vid[(pe * columns + col) * stages] == -1; k++) {
        if (k + 1 == columns) return -1;
        col = col + 1 == columns ? 0 : col + 1;
    }
    i8 *cv = r->vid + (pe * columns + col) * stages;
    i8 *cp = r->pid + (pe * columns + col) * stages;
    *vertex = cv[0];
    *pid = cp[0];
    for (int64_t s = 0; s + 1 < stages; s++) {
        cv[s] = cv[s + 1];
        cp[s] = cp[s + 1];
    }
    cv[stages - 1] = -1;
    r->rr[pe] = col + 1 == columns ? 0 : col + 1;
    r->occ[pe]--;
    r->emitted[pe]++;
    return 0;
}

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* When profiling, add the time since `lap` to stage counter `slot`. */
#define LAP(slot)                                                          \
    do {                                                                   \
        if (profile) {                                                     \
            const int64_t now_ = now_ns();                                 \
            p[slot] += now_ - lap;                                         \
            lap = now_;                                                    \
        }                                                                  \
    } while (0)

/* Run the phase from cycle p[Q_CYCLE] until it drains or reaches cycle
 * `stop`, with the fault masks of that whole range already loaded. */
int64_t fs_run(int64_t *p, int64_t stop)
{
    int64_t *t = (int64_t *)p[Q_MESH];
    const i4 *exec_pe = PHASE(exec_pe), *edges = PHASE(edges);
    const i8 *dst = PHASE(dst), *group_stop = PHASE(group_stop);
    const i8 *row_end = PHASE(row_end);
    i8 *group_start = PHASE(group_start);
    i8 *row_group = PHASE(row_group);
    i4 *d_edge = PHASE(d_edge), *d_pid = PHASE(d_pid);
    const i8 *home = PHASE(home);
    const b1 *stalled = PHASE(pe_stall);
    struct regs r = {
        PHASE(vid), PHASE(pid), PHASE(occ), PHASE(rr),
        PHASE(offered), PHASE(coalesced), PHASE(stored),
        PHASE(rejected), PHASE(emitted), p[Q_STAGES], p[Q_COLUMNS],
    };
    struct queue out = {
        PHASE(out_end), PHASE(out_head), PHASE(out_tail),
        PHASE(out_vid), PHASE(out_pid),
    };
    struct queue spd = {
        PHASE(spd_end), PHASE(spd_head), PHASE(spd_tail),
        PHASE(spd_vid), PHASE(spd_pid),
    };
    i8 *free_pkts = PHASE(free_pkts);
    const i8 *dlv = BUFFER(dlv_pidx), *pkt_dst = BUFFER(pkt_dst);
    const i8 *pkt_vertex = BUFFER(pkt_vertex);
    const i8 *pkt_pid = BUFFER(pkt_pid);
    const int64_t n = t[S_NODES], rows = t[S_ROWS], cols = t[S_COLS];
    const int64_t window = p[Q_WINDOW];
    const int aggregate = r.columns > 0, profile = p[Q_PROFILE] != 0;
    int64_t cycle = p[Q_CYCLE], nfree = p[Q_FREE], status = RUNNING;
    i8 partials = p[Q_PARTIALS], dispatched = p[Q_DISPATCHED];
    int64_t lap = profile ? now_ns() : 0;
    int64_t busy = 0; /* rows whose dispatcher still holds edges */

    for (int64_t row = 0; row < rows; row++)
        busy += row_group[row] < row_end[row];
    for (int slot = Q_DISPATCH_LINES; slot < PHASE_ENTRIES; slot++)
        p[slot] = 0;
    while (cycle < stop) {
        int progressed = 0, stall_hit = 0;

        /* 1. Dispatch, rows ascending: each busy row sends one line, as
         *    _RowDispatcher.issue_line does: up to `cols` edges from at
         *    most `window` groups at the head of its queue; a group that
         *    fills the line stays at the head, its start advanced.  Each
         *    update is offered to its execution PE's register array (or
         *    queued for egress as a partial of its own), and its edge and
         *    partial id recorded. */
        if (busy) {
            progressed = 1;
            p[Q_DISPATCH_LINES] += busy;
        }
        for (int64_t row = 0; row < rows && busy; row++) {
            int64_t g = row_group[row];
            const int64_t end = row_end[row];
            if (g >= end) continue;
            for (int64_t room = cols, used = 0;
                 g < end && room > 0 && used < window;) {
                const int64_t lo = group_start[g], hi = group_stop[g];
                const int64_t upto = hi - lo > room ? lo + room : hi;
                for (int64_t at = lo; at < upto; at++) {
                    const i4 e = edges[at];
                    const i8 id =
                        aggregate
                            ? offer(&r, &out, exec_pe[e], dst[e], partials)
                        : push(&out, exec_pe[e], dst[e], partials) ? partials
                                                                   : -1;
                    if (id < 0) goto corrupt;
                    if (id == partials) partials++;
                    else p[Q_COALESCED]++;
                    d_edge[dispatched] = e;
                    d_pid[dispatched++] = (i4)id;
                }
                room -= upto - lo;
                if (upto < hi) {
                    group_start[g] = upto; /* the line is full */
                } else {
                    g++;
                    used++;
                }
            }
            row_group[row] = g;
            busy -= g == end;
        }
        LAP(Q_NS_DISPATCH);

        /* 2. RU egress, one update per PE: the out queue's head, else a
         *    register once no row is busy.  The head leaves its queue
         *    only when the mesh takes it; a refused register waits at the
         *    head of the (empty) out queue.  Each PE injects into its own
         *    local FIFO only, so PE order does not matter. */
        const int drain = !busy;
        for (int64_t pe = 0; pe < n; pe++) {
            const int queued = out.head[pe] < out.tail[pe];
            const int live = aggregate && drain && r.occ[pe] > 0;
            if (!queued && !live) continue;
            if (stalled[pe]) {
                stall_hit = 1;
                continue;
            }
            progressed = 1;
            i8 vertex, id;
            if (queued) {
                vertex = out.vid[out.head[pe]];
                id = out.pid[out.head[pe]];
            } else if (emit(&r, pe, &vertex, &id)) {
                goto corrupt;
            }
            const int64_t to = home[vertex];
            int sent;
            if (to == pe) {
                sent = push(&spd, pe, vertex, id);
                if (!sent) goto corrupt;
            } else {
                sent = nfree > 0 && place(t, free_pkts[nfree - 1], pe, to,
                                          vertex, id, cycle);
                nfree -= sent;
                p[Q_INJECTED] += sent;
            }
            if (queued) out.head[pe] += sent;
            else if (!sent && !push(&out, pe, vertex, id)) goto corrupt;
        }
        LAP(Q_NS_EGRESS);

        /* 3. One mesh cycle; deliveries join their home's SPD queue and
         *    free their packet index. */
        const int64_t delivered = mesh_step(t, cycle, 0);
        for (int64_t k = 0; k < delivered; k++) {
            const int64_t pidx = dlv[k];
            if (!push(&spd, pkt_dst[pidx], pkt_vertex[pidx], pkt_pid[pidx]))
                goto corrupt;
            free_pkts[nfree++] = pidx;
        }
        const int64_t occupancy = t[S_OCCUPANCY];
        p[Q_STEPS]++;
        p[Q_DELIVERED] += delivered;
        p[Q_HOPS] += t[S_HOPS];
        p[Q_LATENCY] += t[S_LATENCY];
        p[Q_STALLED] += t[S_STALLED];
        p[Q_REROUTED] += t[S_REROUTED];
        p[Q_MESH_DEGRADED] += t[S_DEGRADED];
        if (occupancy > p[Q_PEAK]) p[Q_PEAK] = occupancy;
        p[Q_OCCUPANCY] = occupancy;
        progressed |= delivered || occupancy;
        LAP(Q_NS_STEP);

        /* 4. SPD: one Reduce per slice, its value left to fs_fold.
         *    `held` counts every update still in a PE. */
        int64_t held = 0;
        for (int64_t pe = 0; pe < n; pe++) {
            int64_t h = spd.head[pe];
            if (h < spd.tail[pe]) {
                if (stalled[pe]) {
                    stall_hit = 1;
                } else {
                    spd.head[pe] = ++h;
                    p[Q_SPD_REDUCES]++;
                    progressed = 1;
                }
            }
            held += spd.tail[pe] - h + out.tail[pe] - out.head[pe];
            if (aggregate) held += r.occ[pe];
        }
        LAP(Q_NS_RETIRE);

        p[Q_STALL_DEGRADED] += stall_hit && !t[S_DEGRADED];
        cycle++;
        if (cycle > p[Q_MAX_CYCLES]) {
            status = OVERRUN;
            break;
        }
        if (!progressed && !busy && !held && !occupancy) {
            status = DRAINED;
            break;
        }
    }
    goto done;
corrupt:
    status = CORRUPT;
done:
    p[Q_CYCLE] = cycle;
    p[Q_FREE] = nfree;
    p[Q_PARTIALS] = partials;
    p[Q_DISPATCHED] = dispatched;
    return status;
}

/* ------------------------------------------------------------------ */
/* The fold                                                            */
/* ------------------------------------------------------------------ */

/* np.add, np.minimum and np.maximum (op 0, 1, 2) exactly: a NaN operand
 * wins, and a tie (0.0 against -0.0) returns b. */
static f8 reduce(int op, f8 a, f8 b)
{
    if (op == 1) return a < b || a != a ? a : b;
    if (op == 2) return a > b || a != a ? a : b;
    return a + b;
}

/* Compute the values of a drained phase of `updates` updates on `pes`
 * PEs, with the same operands in the same order as reducing them in the
 * loop would:
 *   1. each partial, in dispatch order: its first member stores its
 *      value in the next of the `slots` entries of partial, each later
 *      one reduces with the partial as the first operand (as a register
 *      coalesces).  Dispatched update e carries values[d_edge[e]], so
 *      values is read in place and never written;
 *   2. each PE's SPD slice in queue order, which is retire order (a
 *      vertex retires only at its home, whose queue is FIFO):
 *      vtemp[v] = reduce(vtemp[v], partial), and v is touched.
 * Reads values, d_edge, d_pid, spd_end, spd_tail, spd_vid, spd_pid and
 * REDUCE of the table and writes partial, vtemp and touched.  Returns
 * the number of partials, or -1 when an id is out of order or the
 * partials do not fit in `slots`. */
int64_t fs_fold(int64_t *p, int64_t pes, int64_t updates, int64_t slots)
{
    const f8 *values = PHASE(values);
    f8 *part = PHASE(partial);
    const i4 *d_edge = PHASE(d_edge), *d_pid = PHASE(d_pid);
    const i8 *end = PHASE(spd_end), *tail = PHASE(spd_tail);
    const i4 *vid = PHASE(spd_vid), *pid = PHASE(spd_pid);
    f8 *vtemp = PHASE(vtemp);
    b1 *touched = PHASE(touched);
    const int op = (int)p[Q_REDUCE];
    int64_t partials = 0;

    for (int64_t e = 0; e < updates; e++) {
        const i8 id = d_pid[e];
        const f8 value = values[d_edge[e]];
        if (id == partials && partials < slots) part[partials++] = value;
        else if (id >= 0 && id < partials)
            part[id] = reduce(op, part[id], value);
        else return -1;
    }
    for (int64_t pe = 0, at = 0; pe < pes; at = end[pe++]) {
        for (; at < tail[pe]; at++) {
            const i8 v = vid[at], id = pid[at];
            if (id < 0 || id >= partials) return -1;
            vtemp[v] = reduce(op, vtemp[v], part[id]);
            touched[v] = 1;
        }
    }
    return partials;
}
