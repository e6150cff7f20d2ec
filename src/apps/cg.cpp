#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "apps/app.hpp"
#include "apps/common.hpp"
#include "mpi/communicator.hpp"
#include "mpi/typed.hpp"

// NAS CG kernel with real conjugate-gradient numerics.
//
// The NPB layout is kept: p = nprows * npcols with npcols ∈ {nprows,
// 2*nprows}; A is partitioned in 2D blocks, the direction vectors live as
// column chunks (replicated down each process column), and the matvec
// result as row chunks. Every inner iteration exchanges:
//
//   * log2(npcols) row-partner messages summing the partial matvec
//     (rs*8-byte vectors),
//   * one transpose-partner message turning the row chunk into the next
//     column chunk (cs*8 bytes; skipped when the partner is the rank
//     itself, which happens on the diagonal of square grids),
//   * 2*log2(npcols) scalar row-partner messages for the two dot products.
//
// That is all point-to-point with two frequent senders and two frequent
// sizes — Table 1's CG row. Instead of NPB's random sparse matrix (whose
// generator is a benchmark of its own), A is a banded symmetric
// diagonally-dominant matrix: same communication, same SPD convergence
// guarantee, and the verification can assert that the real residual drops.

namespace mpipred::apps {

namespace {

struct CgParams {
  int na;
  int niter;
  int cgitmax;
};

CgParams cg_params(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::Toy: return {.na = 256, .niter = 2, .cgitmax = 5};
    case ProblemClass::S: return {.na = 1400, .niter = 15, .cgitmax = 25};
    case ProblemClass::W: return {.na = 7000, .niter = 15, .cgitmax = 25};
    case ProblemClass::A: return {.na = 14000, .niter = 15, .cgitmax = 25};
  }
  return {.na = 256, .niter = 2, .cgitmax = 5};
}

/// Banded SPD matrix: 8 on the diagonal, -0.5 at offsets ±1, ±7, ±49, ±281.
constexpr std::array<int, 4> kOffsets = {1, 7, 49, 281};
constexpr double kDiag = 8.0;
constexpr double kOff = -0.5;

}  // namespace

bool cg_supports(int nprocs) { return std::has_single_bit(static_cast<unsigned>(nprocs)); }

AppOutcome run_cg(mpi::World& world, const AppConfig& cfg) {
  const int p = world.nranks();
  MPIPRED_REQUIRE(cg_supports(p), "CG needs a power-of-two process count");
  CgParams params = cg_params(cfg.problem_class);
  if (cfg.iterations_override > 0) {
    params.niter = cfg.iterations_override;
  }

  // Process grid: npcols = 2^ceil(log2(p)/2), nprows = p / npcols.
  const int l2p = static_cast<int>(std::bit_width(static_cast<unsigned>(p))) - 1;
  const int npcols = 1 << ((l2p + 1) / 2);
  const int nprows = p / npcols;
  const int l2npcols = static_cast<int>(std::bit_width(static_cast<unsigned>(npcols))) - 1;
  MPIPRED_REQUIRE(params.na % npcols == 0 && params.na % nprows == 0,
                  "na must divide evenly over the process grid");
  const int cs = params.na / npcols;  // column-chunk length (q, z, r, p, x)
  const int rs = params.na / nprows;  // row-chunk length (w)

  std::vector<std::uint64_t> checksums(static_cast<std::size_t>(p), 0);
  std::vector<double> first_res(static_cast<std::size_t>(p), 0.0);
  std::vector<double> final_res(static_cast<std::size_t>(p), 0.0);

  world.run([&](mpi::Communicator& comm) {
    const int me = comm.rank();
    const int myrow = me / npcols;
    const int mycol = me % npcols;
    const int row_base = myrow * rs;  // global index of first row in R_i
    const int col_base = mycol * cs;  // global index of first column in C_j

    // Transpose partner (involutive by construction; see DESIGN.md).
    int tr_row;
    int tr_col;
    if (npcols == nprows) {
      tr_row = mycol;
      tr_col = myrow;
    } else {  // npcols == 2*nprows
      tr_row = mycol / 2;
      tr_col = 2 * myrow + (mycol % 2);
    }
    const int transpose_partner = tr_row * npcols + tr_col;
    // Which half of the row chunk the transpose hands over (rectangular
    // grids only; on square grids the whole chunk is swapped).
    const int send_half = (npcols == nprows) ? 0 : (tr_col % 2);

    constexpr int kTagVec = 300;
    constexpr int kTagTr = 301;
    constexpr int kTagDot = 302;

    // Global dot product of column-chunk vectors: local dot over C_j, then
    // sum across the process row (each row covers every column block).
    std::vector<double> wbuf(static_cast<std::size_t>(rs));
    std::vector<double> wtmp(static_cast<std::size_t>(rs));
    const auto global_dot = [&](std::span<const double> a, std::span<const double> b) {
      double local = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        local += a[i] * b[i];
      }
      for (int k = 0; k < l2npcols; ++k) {
        const int partner = myrow * npcols + (mycol ^ (1 << k));
        double other = 0.0;
        comm.sendrecv(std::as_bytes(std::span{&local, 1}), partner, kTagDot,
                      std::as_writable_bytes(std::span{&other, 1}), partner, kTagDot);
        local += other;
      }
      return local;
    };

    // w = A * v  (v is the column chunk), returned as the next column
    // chunk via row summation + transpose exchange.
    std::vector<double> qv(static_cast<std::size_t>(cs));
    const auto matvec = [&](std::span<const double> v, std::span<double> result) {
      // Local block: rows R_i x cols C_j of the banded matrix, one band at a
      // time over the rows it reaches in C_j. Each row sums its terms from
      // 0.0 in the order diagonal, -1, +1, -7, +7, ...; the checksums depend
      // on that order.
      std::fill(wbuf.begin(), wbuf.end(), 0.0);
      const auto add_band = [&](int shift, double coef) {
        // Row r reads global column row_base + r + shift, which must lie in
        // [0, na) and in [col_base, col_base + cs).
        const int lo = std::max({0, col_base - row_base - shift, -row_base - shift});
        const int hi =
            std::min({rs, col_base + cs - row_base - shift, params.na - row_base - shift});
        const int to_local_col = row_base + shift - col_base;
        for (int r = lo; r < hi; ++r) {
          wbuf[static_cast<std::size_t>(r)] +=
              coef * v[static_cast<std::size_t>(r + to_local_col)];
        }
      };
      add_band(0, kDiag);
      for (const int off : kOffsets) {
        add_band(-off, kOff);
        add_band(off, kOff);
      }
      comm.compute(sim::SimTime{static_cast<std::int64_t>(rs) * 100});

      // Sum partial results across the process row (recursive doubling).
      for (int k = 0; k < l2npcols; ++k) {
        const int partner = myrow * npcols + (mycol ^ (1 << k));
        comm.sendrecv(std::as_bytes(std::span<const double>{wbuf}), partner, kTagVec,
                      std::as_writable_bytes(std::span<double>{wtmp}), partner, kTagVec);
        for (int i = 0; i < rs; ++i) {
          wbuf[static_cast<std::size_t>(i)] += wtmp[static_cast<std::size_t>(i)];
        }
      }

      // Transpose: my needed chunk w_{C_j} lives with the transpose
      // partner; hand them the half (or whole) they need in exchange.
      if (transpose_partner == me) {
        // Self-transpose: my needed chunk w_{C_j} is the `send_half` slice
        // of my own row chunk (offset 0 on square grids).
        const std::size_t base = static_cast<std::size_t>(send_half) * static_cast<std::size_t>(cs);
        for (int i = 0; i < cs; ++i) {
          result[static_cast<std::size_t>(i)] = wbuf[base + static_cast<std::size_t>(i)];
        }
      } else {
        const std::span<const double> to_send(wbuf.data() +
                                                  static_cast<std::size_t>(send_half) *
                                                      static_cast<std::size_t>(cs),
                                              static_cast<std::size_t>(cs));
        comm.sendrecv(std::as_bytes(to_send), transpose_partner, kTagTr,
                      std::as_writable_bytes(result), transpose_partner, kTagTr);
      }
    };

    // CG proper (NPB structure: niter outer solves of 25 inner steps).
    std::vector<double> x(static_cast<std::size_t>(cs), 1.0);
    std::vector<double> z(static_cast<std::size_t>(cs));
    std::vector<double> r(static_cast<std::size_t>(cs));
    std::vector<double> pv(static_cast<std::size_t>(cs));
    double first_norm = -1.0;
    double final_norm = 0.0;

    for (int outer = 0; outer < params.niter; ++outer) {
      std::fill(z.begin(), z.end(), 0.0);
      r.assign(x.begin(), x.end());
      pv.assign(r.begin(), r.end());
      double rho = global_dot(r, r);
      if (first_norm < 0.0) {
        first_norm = std::sqrt(rho);
      }

      for (int it = 0; it < params.cgitmax; ++it) {
        matvec(pv, qv);
        const double d = global_dot(pv, qv);
        const double alpha = rho / d;
        for (int i = 0; i < cs; ++i) {
          z[static_cast<std::size_t>(i)] += alpha * pv[static_cast<std::size_t>(i)];
          r[static_cast<std::size_t>(i)] -= alpha * qv[static_cast<std::size_t>(i)];
        }
        const double rho_new = global_dot(r, r);
        const double beta = rho_new / rho;
        rho = rho_new;
        for (int i = 0; i < cs; ++i) {
          pv[static_cast<std::size_t>(i)] =
              r[static_cast<std::size_t>(i)] + beta * pv[static_cast<std::size_t>(i)];
        }
        comm.compute(sim::SimTime{static_cast<std::int64_t>(cs) * 40});
      }

      final_norm = std::sqrt(rho);
      // x = z / ||z|| (keeps the next outer solve well-scaled).
      const double znorm = std::sqrt(global_dot(z, z));
      if (znorm > 0.0) {
        for (int i = 0; i < cs; ++i) {
          x[static_cast<std::size_t>(i)] = z[static_cast<std::size_t>(i)] / znorm;
        }
      }
    }

    first_res[static_cast<std::size_t>(comm.world_rank())] = first_norm;
    final_res[static_cast<std::size_t>(comm.world_rank())] = final_norm;
    checksums[static_cast<std::size_t>(comm.world_rank())] =
        fnv1a(std::as_bytes(std::span<const double>{x}));
  });

  AppOutcome out;
  out.name = "cg";
  out.nprocs = p;
  out.iterations = params.niter;
  out.rank_checksums = std::move(checksums);
  out.metric = final_res.front();
  // CG on an SPD system must reduce the residual by orders of magnitude
  // within 25 iterations; ranks must also agree on the final norm.
  out.verified = final_res.front() < 1e-3 * std::max(first_res.front(), 1.0);
  for (const double v : final_res) {
    if (std::abs(v - final_res.front()) > 1e-9 * std::max(1.0, std::abs(final_res.front()))) {
      out.verified = false;
    }
  }
  return out;
}

}  // namespace mpipred::apps
