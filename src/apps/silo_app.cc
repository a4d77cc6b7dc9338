#include "src/apps/silo_app.h"

namespace adios {

namespace {
// TPC-C standard mix boundaries (cumulative percent).
constexpr double kNewOrderCum = 0.445;
constexpr double kPaymentCum = 0.445 + 0.431;
constexpr double kOrderStatusCum = kPaymentCum + 0.041;
constexpr double kDeliveryCum = kOrderStatusCum + 0.042;
}  // namespace

const char* SiloApp::OpName(uint32_t op) const {
  switch (op) {
    case kNewOrder:
      return "NewOrder";
    case kPayment:
      return "Payment";
    case kOrderStatus:
      return "OrderStatus";
    case kDelivery:
      return "Delivery";
    default:
      return "StockLevel";
  }
}

RemoteAddr SiloApp::WarehouseAddr(uint32_t w) const {
  return warehouses_ + static_cast<uint64_t>(w) * sizeof(WarehouseRow);
}
RemoteAddr SiloApp::DistrictAddr(uint32_t w, uint32_t d) const {
  return districts_ +
         (static_cast<uint64_t>(w) * options_.districts_per_warehouse + d) * sizeof(DistrictRow);
}
RemoteAddr SiloApp::CustomerAddr(uint32_t w, uint32_t d, uint32_t c) const {
  const uint64_t idx =
      (static_cast<uint64_t>(w) * options_.districts_per_warehouse + d) *
          options_.customers_per_district +
      c;
  return customers_ + idx * sizeof(CustomerRow);
}
RemoteAddr SiloApp::ItemAddr(uint32_t i) const {
  return items_ + static_cast<uint64_t>(i) * sizeof(ItemRow);
}
RemoteAddr SiloApp::StockAddr(uint32_t w, uint32_t i) const {
  return stock_ + (static_cast<uint64_t>(w) * options_.stock_per_warehouse + i) * sizeof(StockRow);
}
RemoteAddr SiloApp::OrderAddr(uint32_t w, uint32_t d, uint64_t o_id) const {
  const uint64_t slot = o_id % options_.max_orders_per_district;
  const uint64_t district =
      static_cast<uint64_t>(w) * options_.districts_per_warehouse + d;
  return orders_ + (district * options_.max_orders_per_district + slot) * sizeof(OrderRow);
}
RemoteAddr SiloApp::OrderLineAddr(uint32_t w, uint32_t d, uint64_t o_id, uint32_t line) const {
  const uint64_t slot = o_id % options_.max_orders_per_district;
  const uint64_t district =
      static_cast<uint64_t>(w) * options_.districts_per_warehouse + d;
  const uint64_t base = (district * options_.max_orders_per_district + slot) * kMaxLinesPerOrder;
  return order_lines_ + (base + line) * sizeof(OrderLineRow);
}

uint64_t SiloApp::WorkingSetBytes() const {
  const uint64_t w = options_.warehouses;
  const uint64_t d = w * options_.districts_per_warehouse;
  uint64_t total = 0;
  total += w * sizeof(WarehouseRow);
  total += d * sizeof(DistrictRow);
  total += d * options_.customers_per_district * sizeof(CustomerRow);
  total += options_.items * sizeof(ItemRow);
  total += w * options_.stock_per_warehouse * sizeof(StockRow);
  total += d * options_.max_orders_per_district * sizeof(OrderRow);
  total += d * options_.max_orders_per_district * kMaxLinesPerOrder * sizeof(OrderLineRow);
  return total + 8 * kPageSize;
}

void SiloApp::Setup(RemoteHeap& heap) {
  RemoteRegion* region = heap.region();
  const uint64_t w = options_.warehouses;
  const uint64_t d = w * options_.districts_per_warehouse;

  auto alloc = [&heap](uint64_t bytes) {
    return heap.AllocPages((bytes + kPageSize - 1) / kPageSize);
  };
  warehouses_ = alloc(w * sizeof(WarehouseRow));
  districts_ = alloc(d * sizeof(DistrictRow));
  customers_ = alloc(d * options_.customers_per_district * sizeof(CustomerRow));
  items_ = alloc(options_.items * sizeof(ItemRow));
  stock_ = alloc(w * options_.stock_per_warehouse * sizeof(StockRow));
  orders_ = alloc(d * options_.max_orders_per_district * sizeof(OrderRow));
  order_lines_ =
      alloc(d * options_.max_orders_per_district * kMaxLinesPerOrder * sizeof(OrderLineRow));

  for (uint32_t wi = 0; wi < w; ++wi) {
    region->WriteObject(WarehouseAddr(wi), WarehouseRow{0, 5 + wi % 10, {}});
    for (uint32_t di = 0; di < options_.districts_per_warehouse; ++di) {
      // Start with a full ring of delivered orders so Order-Status and
      // Stock-Level have history to read from the first request on.
      DistrictRow row{};
      row.next_o_id = options_.max_orders_per_district / 2;
      row.delivered_o_id = row.next_o_id;
      row.tax = 3 + di;
      region->WriteObject(DistrictAddr(wi, di), row);
      for (uint64_t o = 0; o < options_.max_orders_per_district / 2; ++o) {
        OrderRow order{};
        order.c_id = (o * 17) % options_.customers_per_district;
        order.ol_cnt = 5 + o % 11;
        order.carrier = 1;
        for (uint32_t l = 0; l < order.ol_cnt; ++l) {
          const uint64_t item = (o * 31 + l * 7) % options_.items;
          OrderLineRow line{item, 1 + l % 5, ItemPrice(item)};
          region->WriteObject(OrderLineAddr(wi, di, o, l), line);
        }
        region->WriteObject(OrderAddr(wi, di, o), order);
      }
    }
    for (uint32_t s = 0; s < options_.stock_per_warehouse; ++s) {
      region->WriteObject(StockAddr(wi, s), StockRow{50 + s % 50, 0, 0, {}});
    }
  }
  for (uint32_t i = 0; i < options_.items; ++i) {
    region->WriteObject(ItemAddr(i), ItemRow{ItemPrice(i), {}});
  }
}

void SiloApp::FillRequest(Rng& rng, Request* req) {
  const double roll = rng.NextDouble();
  if (roll < kNewOrderCum) {
    req->op = kNewOrder;
  } else if (roll < kPaymentCum) {
    req->op = kPayment;
  } else if (roll < kOrderStatusCum) {
    req->op = kOrderStatus;
  } else if (roll < kDeliveryCum) {
    req->op = kDelivery;
  } else {
    req->op = kStockLevel;
  }
  req->key = rng.Next();  // Seed for deterministic parameter derivation.
  req->reply_bytes = 128;
}

SiloApp::TxnParams SiloApp::DeriveParams(const Request& req) const {
  Rng rng(req.key);
  TxnParams p{};
  p.w = static_cast<uint32_t>(rng.NextBelow(options_.warehouses));
  p.d = static_cast<uint32_t>(rng.NextBelow(options_.districts_per_warehouse));
  p.c = static_cast<uint32_t>(rng.NextBelow(options_.customers_per_district));
  p.ol_cnt = static_cast<uint32_t>(5 + rng.NextBelow(11));  // 5..15 lines.
  p.amount = 0;
  for (uint32_t l = 0; l < p.ol_cnt; ++l) {
    p.item_ids[l] = static_cast<uint32_t>(rng.NextBelow(options_.items));
    p.qtys[l] = static_cast<uint32_t>(1 + rng.NextBelow(10));
    p.amount += ItemPrice(p.item_ids[l]) * p.qtys[l];
  }
  return p;
}

void SiloApp::Handle(Request* req, WorkerApi& api) {
  const TxnParams p = DeriveParams(*req);
  api.Compute(kTxnBeginCycles);
  switch (req->op) {
    case kNewOrder:
      DoNewOrder(req, api, p);
      break;
    case kPayment:
      DoPayment(req, api, p);
      break;
    case kOrderStatus:
      DoOrderStatus(req, api, p);
      break;
    case kDelivery:
      DoDelivery(req, api, p);
      break;
    default:
      DoStockLevel(req, api, p);
      break;
  }
  api.Compute(kTxnCommitCycles);
}

void SiloApp::DoNewOrder(Request* req, WorkerApi& api, const TxnParams& p) {
  api.Compute(kOpCycles);
  (void)api.Read<WarehouseRow>(WarehouseAddr(p.w));

  DistrictRow district = api.Read<DistrictRow>(DistrictAddr(p.w, p.d));
  const uint64_t o_id = district.next_o_id;
  district.next_o_id = o_id + 1;
  api.Write(DistrictAddr(p.w, p.d), district);

  (void)api.Read<CustomerRow>(CustomerAddr(p.w, p.d, p.c));

  uint64_t total = 0;
  for (uint32_t l = 0; l < p.ol_cnt; ++l) {
    api.MaybePreempt();
    api.Compute(kOpCycles);
    const ItemRow item = api.Read<ItemRow>(ItemAddr(p.item_ids[l]));
    StockRow stock = api.Read<StockRow>(StockAddr(p.w, p.item_ids[l]));
    stock.quantity = stock.quantity >= p.qtys[l] + 10 ? stock.quantity - p.qtys[l]
                                                      : stock.quantity + 91 - p.qtys[l];
    stock.ytd += p.qtys[l];
    stock.order_cnt += 1;
    api.Write(StockAddr(p.w, p.item_ids[l]), stock);
    const uint64_t amount = item.price * p.qtys[l];
    total += amount;
    api.Write(OrderLineAddr(p.w, p.d, o_id, l), OrderLineRow{p.item_ids[l], p.qtys[l], amount});
  }
  api.Write(OrderAddr(p.w, p.d, o_id), OrderRow{p.c, p.ol_cnt, 0, total});
  req->result = total;
}

void SiloApp::DoPayment(Request* req, WorkerApi& api, const TxnParams& p) {
  const uint64_t amount = 100 + (req->key % 4900);
  api.Compute(kOpCycles);
  WarehouseRow w = api.Read<WarehouseRow>(WarehouseAddr(p.w));
  w.ytd += amount;
  api.Write(WarehouseAddr(p.w), w);

  DistrictRow d = api.Read<DistrictRow>(DistrictAddr(p.w, p.d));
  d.ytd += amount;
  api.Write(DistrictAddr(p.w, p.d), d);

  CustomerRow c = api.Read<CustomerRow>(CustomerAddr(p.w, p.d, p.c));
  c.balance -= static_cast<int64_t>(amount);
  c.ytd_payment += amount;
  c.payment_cnt += 1;
  api.Write(CustomerAddr(p.w, p.d, p.c), c);
  req->result = amount;
}

void SiloApp::DoOrderStatus(Request* req, WorkerApi& api, const TxnParams& p) {
  api.Compute(kOpCycles);
  (void)api.Read<CustomerRow>(CustomerAddr(p.w, p.d, p.c));
  const DistrictRow d = api.Read<DistrictRow>(DistrictAddr(p.w, p.d));
  const uint64_t o_id = d.next_o_id == 0 ? 0 : d.next_o_id - 1;
  const OrderRow order = api.Read<OrderRow>(OrderAddr(p.w, p.d, o_id));
  uint64_t total = 0;
  const uint64_t lines = order.ol_cnt <= kMaxLinesPerOrder ? order.ol_cnt : kMaxLinesPerOrder;
  for (uint32_t l = 0; l < lines; ++l) {
    api.MaybePreempt();
    api.Compute(kOpCycles);
    total += api.Read<OrderLineRow>(OrderLineAddr(p.w, p.d, o_id, l)).amount;
  }
  req->result = total;
}

void SiloApp::DoDelivery(Request* req, WorkerApi& api, const TxnParams& p) {
  uint64_t delivered = 0;
  for (uint32_t di = 0; di < options_.districts_per_warehouse; ++di) {
    api.MaybePreempt();
    api.Compute(kOpCycles);
    DistrictRow d = api.Read<DistrictRow>(DistrictAddr(p.w, di));
    if (d.delivered_o_id >= d.next_o_id) {
      continue;  // Nothing undelivered in this district.
    }
    const uint64_t o_id = d.delivered_o_id;
    d.delivered_o_id = o_id + 1;
    api.Write(DistrictAddr(p.w, di), d);

    OrderRow order = api.Read<OrderRow>(OrderAddr(p.w, di, o_id));
    order.carrier = 1 + (req->key % 10);
    api.Write(OrderAddr(p.w, di, o_id), order);

    CustomerRow c = api.Read<CustomerRow>(
        CustomerAddr(p.w, di, static_cast<uint32_t>(order.c_id)));
    c.balance += static_cast<int64_t>(order.total);
    c.delivery_cnt += 1;
    api.Write(CustomerAddr(p.w, di, static_cast<uint32_t>(order.c_id)), c);
    ++delivered;
  }
  req->result = delivered;
}

void SiloApp::DoStockLevel(Request* req, WorkerApi& api, const TxnParams& p) {
  api.Compute(kOpCycles);
  const DistrictRow d = api.Read<DistrictRow>(DistrictAddr(p.w, p.d));
  const uint64_t threshold = 10 + (req->key % 11);
  uint64_t low = 0;
  const uint64_t newest = d.next_o_id;
  const uint64_t span = newest < 20 ? newest : 20;
  for (uint64_t o = newest - span; o < newest; ++o) {
    api.MaybePreempt();
    const OrderRow order = api.Read<OrderRow>(OrderAddr(p.w, p.d, o));
    const uint64_t lines = order.ol_cnt <= kMaxLinesPerOrder ? order.ol_cnt : kMaxLinesPerOrder;
    for (uint32_t l = 0; l < lines; ++l) {
      api.Compute(kOpCycles / 2);
      const OrderLineRow line = api.Read<OrderLineRow>(OrderLineAddr(p.w, p.d, o, l));
      const StockRow stock = api.Read<StockRow>(
          StockAddr(p.w, static_cast<uint32_t>(line.item_id % options_.stock_per_warehouse)));
      if (stock.quantity < threshold) {
        ++low;
      }
    }
  }
  req->result = low;
}

bool SiloApp::Verify(const Request& req) const {
  const TxnParams p = DeriveParams(req);
  switch (req.op) {
    case kNewOrder:
      // Order totals are deterministic: static prices x derived quantities.
      return req.result == p.amount;
    case kPayment:
      return req.result == 100 + (req.key % 4900);
    case kDelivery:
      return req.result <= options_.districts_per_warehouse;
    default:
      return true;  // Scan results depend on interleaving; checked in tests.
  }
}

}  // namespace adios
