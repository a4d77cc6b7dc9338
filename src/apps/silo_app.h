// Silo-like in-memory OLTP running TPC-C (paper §5.2, Fig. 12).
//
// The five TPC-C transaction types run with the standard mix
// (New-Order 44.5%, Payment 43.1%, Order-Status 4.1%, Delivery 4.2%,
// Stock-Level 4.1%) over warehouse/district/customer/item/stock/order
// tables laid out as fixed-width arrays in remote memory. Transactions both
// read and *write* remote pages, exercising dirty eviction and write-back.
//
// Simplifications vs Silo proper (documented in DESIGN.md): no OCC — since
// handlers only interleave at page-fault yield points, concurrent updates
// use benign last-writer-wins semantics; TPC-C quantities self-stabilize
// (stock restocks below 10), and Verify() checks deterministic facts
// (priced order totals) rather than global serializability.

#ifndef ADIOS_SRC_APPS_SILO_APP_H_
#define ADIOS_SRC_APPS_SILO_APP_H_

#include "src/apps/application.h"

namespace adios {

class SiloApp final : public Application {
 public:
  static constexpr uint32_t kNewOrder = 0;
  static constexpr uint32_t kPayment = 1;
  static constexpr uint32_t kOrderStatus = 2;
  static constexpr uint32_t kDelivery = 3;
  static constexpr uint32_t kStockLevel = 4;

  // TPC-C New-Order carries 5..15 order lines, so 15 bounds the order-line
  // slots per order.
  static constexpr uint32_t kMaxLinesPerOrder = 15;
  // Compute (cycles) per table op, per transaction begin and commit.
  static constexpr uint32_t kOpCycles = 180;
  static constexpr uint32_t kTxnBeginCycles = 400;
  static constexpr uint32_t kTxnCommitCycles = 500;

  struct Options {
    uint32_t warehouses = 4;  // Paper: scale factor 200 (~20 GB); scaled down.
    uint32_t districts_per_warehouse = 10;
    uint32_t customers_per_district = 3000;
    uint32_t items = 100000;
    uint32_t stock_per_warehouse = 100000;
    uint32_t max_orders_per_district = 4096;  // Order/order-line ring size.
  };

  explicit SiloApp(const Options& options) : options_(options) {}
  SiloApp() : SiloApp(Options{}) {}

  const char* name() const override { return "silo-tpcc"; }
  uint64_t WorkingSetBytes() const override;
  void Setup(RemoteHeap& heap) override;
  void FillRequest(Rng& rng, Request* req) override;
  void Handle(Request* req, WorkerApi& api) override;
  bool Verify(const Request& req) const override;

  uint32_t NumOpTypes() const override { return 5; }
  const char* OpName(uint32_t op) const override;

  static uint64_t ItemPrice(uint64_t item_id) { return 100 + (item_id * 37) % 9900; }

 private:
  // Fixed-width row layouts (sizes chosen to match TPC-C's row weight class).
  struct WarehouseRow {
    uint64_t ytd;
    uint64_t tax;
    uint8_t pad[48];
  };
  struct DistrictRow {
    uint64_t next_o_id;
    uint64_t delivered_o_id;
    uint64_t ytd;
    uint64_t tax;
    uint8_t pad[32];
  };
  struct CustomerRow {
    int64_t balance;
    uint64_t ytd_payment;
    uint64_t payment_cnt;
    uint64_t delivery_cnt;
    uint8_t pad[96];  // Name/address payload.
  };
  struct ItemRow {
    uint64_t price;
    uint8_t pad[56];
  };
  struct StockRow {
    uint64_t quantity;
    uint64_t ytd;
    uint64_t order_cnt;
    uint8_t pad[40];
  };
  struct OrderRow {
    uint64_t c_id;
    uint64_t ol_cnt;
    uint64_t carrier;
    uint64_t total;
  };
  struct OrderLineRow {
    uint64_t item_id;
    uint64_t qty;
    uint64_t amount;
  };

  // Deterministic per-request parameter derivation (so Verify can replay).
  // adios-lint: ignore(default-off-knob) -- per-txn scratch record, not knobs
  struct TxnParams {
    uint32_t w, d, c;
    uint32_t ol_cnt;
    uint32_t item_ids[15];
    uint32_t qtys[15];
    uint64_t amount;
  };
  TxnParams DeriveParams(const Request& req) const;

  RemoteAddr WarehouseAddr(uint32_t w) const;
  RemoteAddr DistrictAddr(uint32_t w, uint32_t d) const;
  RemoteAddr CustomerAddr(uint32_t w, uint32_t d, uint32_t c) const;
  RemoteAddr ItemAddr(uint32_t i) const;
  RemoteAddr StockAddr(uint32_t w, uint32_t i) const;
  RemoteAddr OrderAddr(uint32_t w, uint32_t d, uint64_t o_id) const;
  RemoteAddr OrderLineAddr(uint32_t w, uint32_t d, uint64_t o_id, uint32_t line) const;

  void DoNewOrder(Request* req, WorkerApi& api, const TxnParams& p);
  void DoPayment(Request* req, WorkerApi& api, const TxnParams& p);
  void DoOrderStatus(Request* req, WorkerApi& api, const TxnParams& p);
  void DoDelivery(Request* req, WorkerApi& api, const TxnParams& p);
  void DoStockLevel(Request* req, WorkerApi& api, const TxnParams& p);

  Options options_;
  RemoteAddr warehouses_ = 0;
  RemoteAddr districts_ = 0;
  RemoteAddr customers_ = 0;
  RemoteAddr items_ = 0;
  RemoteAddr stock_ = 0;
  RemoteAddr orders_ = 0;
  RemoteAddr order_lines_ = 0;
};

}  // namespace adios

#endif  // ADIOS_SRC_APPS_SILO_APP_H_
